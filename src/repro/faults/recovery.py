"""Party respawn: the one recovery dance every driver shares.

Restarting a crashed party is more than flipping the injector's crash
bit — the restarted process has lost its GPU memory and its per-link
compressor state, so everything negotiated against it must be reset or
the next message desynchronises.  This module is the single owner of
that sequence; :func:`~repro.core.inference.run_secure_batch` (in-budget
batch retries), :meth:`repro.serve.Replica.respawn` (fleet replica
recovery), :class:`~repro.core.training.SecureTrainer` (checkpoint
recovery), and any future driver all call :func:`respawn_party` so the
steps can never drift apart:

1. clear the injector's crash state for the party;
2. reset every :class:`~repro.comm.compression.DeltaCompressor` stream
   (delta encoding resumes from scratch on both directions);
3. empty the context's mask table (every opening the servers kept) and
   both servers' device tables (every buffer they kept on a GPU) —
   nothing previously exchanged or uploaded can be assumed present; cached triplets and the links
   between streams are the dealer's and survive, so a replayed batch
   is bit-identical to a fault-free one;
4. charge the restart penalty on the restarted server's CPU, so
   recovery time shows up in the simulated makespan.
"""

from __future__ import annotations


def respawn_party(ctx, party: str, *, charge_restart: bool = True) -> None:
    """Restart ``party`` on ``ctx`` and reset all state it invalidates.

    Safe on contexts without an injector (the restart itself becomes a
    no-op but the state resets still run — callers use this as "assume
    the party rebooted").  With ``charge_restart`` (the default) the
    configured ``retry_policy.restart_penalty_s`` is charged on the
    restarted server's CPU clock.
    """
    injector = getattr(ctx, "fault_injector", None)
    if injector is not None:
        injector.restart(party)
    for compressor in getattr(ctx, "compressors", {}).values():
        compressor.reset_stream_state()
    # the restarted server lost its GPU memory and any previously
    # exchanged masked differences
    ctx.reset_mask_reuse()
    if charge_restart and party.startswith("server"):
        party_id = int(party[-1])
        ctx.server_cpu[party_id].run(
            ctx.config.retry_policy.restart_penalty_s,
            label="recovery:restart",
        )
