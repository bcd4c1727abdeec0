"""Shared by the ``gen_*_transcript*.py`` scripts: write a pin, or check it."""

import argparse

from repro.audit.transcript import Transcript


def check_flag(description: str) -> bool:
    """Parse the scripts' one option and return whether ``--check`` was given."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--check",
        action="store_true",
        help="regenerate in memory and diff against the committed file; "
        "write nothing, exit non-zero naming the first divergent record",
    )
    return parser.parse_args().check


def pin(transcript: Transcript, path: str, *, check: bool) -> bool:
    """Write ``transcript`` to ``path``; under ``check`` compare instead.

    Returns False when the committed pin is stale.
    """
    if not check:
        transcript.dump(path)
        print(f"wrote {path}: {len(transcript)} messages, {transcript.total_bytes} bytes")
        return True
    committed = Transcript.load(path)
    div = committed.diff(transcript)
    if div is None:
        print(f"ok    {path}: {len(committed)} messages replay identically")
        return True
    print(
        f"STALE {path}: committed vs regenerated diverge at {div.describe()} "
        f"(committed {len(committed)} messages, regenerated {len(transcript)})"
    )
    return False
