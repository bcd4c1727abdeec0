"""``scripts/reachability.py``'s allow-list, read without running anything.

The script runs every entry point under a profile hook (minutes); this
reads its ``ALLOW`` and ``REASONS`` from the AST, so an entry naming a
function that is gone, or giving a reason outside the fixed set, fails
tier-1 instead of lingering until the next reachability run.
"""

import ast
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reachability.py"

FIXED_REASONS = (
    "interface method",
    "safety code or test oracle",
    "fault recovery under chaos",
    "bound by perf/tracer.py",
    "public API named in README",
)


def _assigned(name: str) -> ast.expr:
    (node,) = [
        node.value
        for node in ast.parse(SCRIPT.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    return node


def _defined_functions() -> dict:
    spec = importlib.util.spec_from_file_location("reachability", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # definitions only: main() runs under __main__
    return module.defined_functions()


def test_the_reasons_are_the_fixed_set():
    assert ast.literal_eval(_assigned("REASONS")) == FIXED_REASONS


def test_every_entry_gives_one_reason_from_the_fixed_set():
    node = _assigned("ALLOW")
    keys = [ast.literal_eval(k) for k in node.keys]
    assert len(keys) == len(set(keys)), "an ALLOW entry appears twice"
    bad = {k: v for k, v in ast.literal_eval(node).items() if v not in FIXED_REASONS}
    assert not bad


def test_every_entry_names_a_function_defined_in_src():
    defined = _defined_functions()
    gone = sorted(set(ast.literal_eval(_assigned("ALLOW"))) - set(defined))
    assert not gone, f"delete these ALLOW entries, their functions are gone: {gone}"
