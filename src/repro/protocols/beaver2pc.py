"""The paper's 2PC substrate: Beaver-triplet masked multiplication.

This is the framework's default backend.  Its wire behaviour is pinned
record for record by ``tests/data/beaver2pc_mlp_train_transcript.json``
(``scripts/gen_reference_transcript.py`` re-pins it when the protocol's
bytes move on purpose).

Two servers hold additive shares; a trusted dealer (the data-owning
client, per the paper) deals Beaver triplets and comparison
bundles in the offline phase.  Multiplication opens the masked
differences ``E = X - U`` / ``F = Y - V`` (Eq. 4-5) through the
delta-compression layer and applies the fused Eq. 8 product on the
placement the profiler picks.  Under the double pipeline each step
waits only on what it reads: ``E_i`` on ``X``, ``F_i`` on ``Y``, and
each of Fig. 5's uploads on its own half or share.  Truncation is the SecureML share-local
rescale; a fixed x fixed product runs it inside its own last pass (the
``C`` kernel, the CPU's ``+Z``, the Hadamard kernel), at the bytes that
pass already touches.

A mask belongs to a value, so a value is opened once: a multiplication
round has two, one or no live halves (:func:`_open_operands`) — a half
the servers already hold under this very mask, from an earlier product
of the step or, for an unchanged weight, from an earlier step, is
served from the ``mask`` rows of the parties' tables and never sent
(DESIGN §5b, §5e).
"""

from __future__ import annotations

import math

import numpy as np

from repro.comm.wire import RoundCoalescer
from repro.core.ops import _chain, _deps, _set_chain
from repro.core.tensor import SharedTensor
from repro.fixedpoint.ring import ring_add, ring_matmul, ring_sub
from repro.fixedpoint.truncation import rescale_share, truncate_share
from repro.mpc.comparison import secure_ge_const
from repro.mpc.protocol import beaver_elementwise_share
from repro.mpc.shares import reconstruct, share_secret
from repro.mpc.triplets import to_base_layout
from repro.pipeline.profiler import BEAVER_LEAD
from repro.protocols.base import ProtocolBackend
from repro.util.errors import ProtocolError
from repro.util.validation import gemm_dims


def _exchange_round(ctx, label, parts, masks):
    """Eq. 5: one round of masked differences, one frame per direction.

    ``parts`` maps ``"E"`` / ``"F"`` to ``(locals_, local_tasks)`` for
    every half of the round that is live — two, one or none: a half the
    servers already hold is not sent, and a round with no live half
    sends no frame — where ``locals_[i]`` is server i's ``E_i`` (or
    ``F_i``); ``masks`` names each live half's ``(mask uid, value
    uid)`` for the transcript.  Each half goes through its own
    direction's :class:`~repro.comm.compression.DeltaCompressor` stream
    (``{label}/E/{src}``); a :class:`~repro.comm.wire.RoundCoalescer`
    then packs the halves into one framed message per directed link, so
    a multiplication pays one latency charge each way.  Returns, per
    live half, the public combined matrix plus, per server, the task
    after which that server holds it.
    """
    coalescer = RoundCoalescer(f"{label}/EF")
    payloads = {0: [], 1: []}
    for src in (0, 1):
        dst = 1 - src
        for name, (locals_, _tasks) in parts.items():
            key = f"{label}/{name}/{src}"
            payload = ctx.compressors[(src, dst)].encode(key, locals_[src])
            coalescer.add(f"server{src}", f"server{dst}", key, payload.wire_view())
            payloads[src].append((payload, locals_[src]))
    send_tasks = {}
    for frame in coalescer.flush():
        src = int(frame.src.removeprefix("server"))
        dst = 1 - src
        # Sender-side compression scan (cheap, bandwidth bound); one scan
        # covers every matrix of the round.
        scanned = sum(local.nbytes for _payload, local in payloads[src])
        (scan,) = ctx.profiler.run_plan(
            ctx.server_reconstruct_cpu[src], None, "compress",
            (scanned if ctx.config.compression else 0,),
            deps=_deps(*(tasks[src] for _locals, tasks in parts.values())),
            label=f"{label}:compress",
        )
        # Charge the exact framed size (headers + raw bodies) of what
        # crosses the transport.
        sizes = frame.sizes
        send_tasks[src] = ctx.server_channel.send_framed(
            frame.src, frame.dst, sizes,
            deps=(scan,), label=f"{label}:sendEF", parts=frame.n_parts,
        )
        # Transcript tap: one record per frame, logging the masked
        # matrices the receiver can reconstruct (the information content
        # of the wire), not the CSR delta encoding — deltas of truncated
        # shares are legitimately non-uniform, the masked matrix must
        # not be.
        ctx.record_wire(
            frame.src, frame.dst, f"{label}/EF/{src}",
            tuple(local for _payload, local in payloads[src]), nbytes=sizes.nbytes,
            masks=masks,
        )
        # Receiver replays the compressor state machine for exactness.
        for payload, local in payloads[src]:
            decoded = ctx.compressors[(src, dst)].decode(payload)
            if not np.array_equal(decoded, local):  # pragma: no cover - invariant
                raise ProtocolError(
                    f"compression round-trip mismatch on stream {payload.key}"
                )
    combined, recv_tasks = {}, {name: [] for name in parts}
    for dst in (0, 1):
        src = 1 - dst
        for name, (locals_, tasks) in parts.items():
            # Both servers compute the same public matrix; keep either copy.
            combined[name], task = ctx.server_reconstruct_cpu[dst].elementwise(
                ring_add,
                [locals_[dst], locals_[src]],
                deps=_deps(tasks[dst], send_tasks[src]),
                label=f"{label}:combine{name}",
            )
            recv_tasks[name].append(task)
    return {name: (combined[name], recv_tasks[name]) for name in parts}


def _open_operands(ctx, label, triplet, x, y, starts, flat):
    """``E = x - U`` and ``F = y - V`` as public matrices: Eqs. 4-5.

    ``E`` and ``F`` are treated alike, through the ``mask`` rows.
    A side whose mask already holds this very value — an unchanged
    weight's ``F`` from an earlier step, or a value another product of
    this step opened (``X`` for ``X W`` and ``X^T d``, ``d`` for ``X^T d``
    and ``d W^T``) — is *served*: no subtract, no frame part, no
    combine, and its consumer waits on the recorded ready tasks.  The
    rest are *live* and opened in one :func:`_exchange_round`; when the
    two sides are one value under one mask (``p * p``) the second is
    served from the first.  ``flat`` lays a live half out as the 2-D
    matrix that crosses the wire.  Under the double pipeline each
    subtraction waits on its own operand only; otherwise on both
    (``starts[i]``, with the serialisation chain).

    Returns ``(E, F, ready)``: each matrix shaped like its operand, and
    ``ready[i]`` what server ``i``'s product waits on, by name: ``open``
    the whole opening — the combines of the live sides, the recorded
    ready tasks of the served ones and, as a served side was not
    subtracted here, ``starts[i]`` — and, for Fig. 5's uploads, ``E``
    and ``F`` each half's opening and ``A`` and ``B`` each operand
    (each the join, without the double pipeline); ``Z`` waits on
    ``open``.
    """
    sides = tuple(zip("EF", (x, y), (triplet.u, triplet.v), triplet.masks))
    held = {}
    for name, operand, _mask, view in sides:
        hit = ctx.reuse_masked(name, operand, view)
        if hit is not None:
            held[name] = hit
    one_value = triplet.masks[0].mask is triplet.masks[1].mask
    live = {
        name: ([], [])
        for name, _operand, _mask, _view in sides
        if name not in held and not (name == "F" and one_value)
    }
    per_operand = ctx.config.double_pipeline
    for i in (0, 1):
        for name, operand, mask, _view in sides:
            if name in live:
                local, task = ctx.server_reconstruct_cpu[i].elementwise(
                    ring_sub, [operand.shares[i], mask[i]],
                    deps=_deps(operand.tasks[i]) if per_operand else starts[i],
                    label=f"{label}:{name}{i}",
                )
                live[name][0].append(flat(local))
                live[name][1].append(task)
    opened = _exchange_round(
        ctx, label, live,
        tuple((view.mask.uid, operand.uid) for name, operand, _m, view in sides if name in live),
    )
    for name, operand, _mask, view in sides:
        if name in opened:
            combined, tasks = opened[name]
            held[name] = (combined.reshape(operand.shape), tasks)  # off the wire layout
            ctx.store_masked(operand, view, *held[name])
    if "F" not in held:  # one value under one mask: F is E, as y lays it out
        held["F"] = ctx.reuse_masked("F", y, triplet.masks[1])
    (e, e_tasks), (f, f_tasks) = held["E"], held["F"]
    ready = []
    for i in (0, 1):
        halves = {"E": _deps(*e_tasks[i : i + 1]), "F": _deps(*f_tasks[i : i + 1])}
        join = _deps(*(() if len(live) == 2 else starts[i]), *halves["E"], *halves["F"])
        shares = {"A": _deps(x.tasks[i]), "B": _deps(y.tasks[i])}
        if not per_operand:
            halves, shares = dict.fromkeys(halves, join), dict.fromkeys(shares, starts[i])
        ready.append({"open": join, "Z": join, **halves, **shares})
    return e, f, ready


def _slots(ctx, label, triplet, x, y) -> dict[str, tuple]:
    """Fig. 5 slot -> ``(row key, lifetime)`` of every operand of the
    product ``label`` (:meth:`SecureContext.lifetime`); ``D``, computed
    from ``E``, is kept as long as ``E`` is."""
    life = ctx.lifetime(label, x, y, triplet)
    e, f = (view.mask.uid for view in triplet.masks)
    return {
        "E": (("open", e), life["E"]), "A": (("share", x.uid), life["L"]),
        "F": (("open", f), life["F"]), "B": (("share", y.uid), life["R"]),
        "Z": (("Z", triplet.uid), life["Z"]), "D": (("lead", e), life["E"]),
    }


def _resident(table, keep: dict) -> tuple[str, ...]:
    """The slots of a GPU product that place nothing, where ``table``
    holds the row keys a party holds and ``keep`` maps each slot kept
    past the product to its row key: ``D`` where its row is held (and
    then nothing reads ``A_i``), and each of ``E``, ``A``, ``F``, ``B``,
    ``Z`` whose row is held or an earlier slot of the product uploads
    (``p * p``)."""
    held = set(table)
    resident = ["D"] if keep.get("D") in held else []
    for slot in "EAFBZ":  # Fig. 5's order
        row = keep.get(slot)
        if row in held:
            resident.append(slot)
        elif row is not None and not (slot == "A" and "D" in resident):
            held.add(row)
    return tuple(sorted(resident))


def _reads(ctx, party, slots, resident, ready) -> dict:
    """What server ``party``'s GPU product waits on, by name: ``ready``
    (:func:`_open_operands`) and, for each ``resident`` slot, its row's
    task."""
    rows = {slot: ctx.rows.get(party, slots[slot][0]) for slot in resident}
    return {**ready, **{slot: (row.task,) for slot, row in rows.items() if row is not None}}


def _on_gpu(ctx, party, label, dims, slots, keep, bases, ready):
    """Server ``party``'s Eq. 8 product on its GPU: the ``beaver2pc``
    plan, placed by ``run_plan`` around the party's rows; returns
    ``C_i``'s download.  A slot the party holds places nothing, and its
    readers wait on the row's task; every upload fills a row with its
    slot's lifetime, and the product's other device memory (``G1``,
    ``G2``, ``C``) is an ``op`` row too.  ``bases``: the slots' arrays
    in base layout; ``keep``: the kept slots' row keys."""
    resident = _resident(ctx.rows.table(party), keep)
    tasks = ctx.profiler.run_plan(
        None, ctx.server_gpu[party], "beaver2pc", dims,
        deps=_reads(ctx, party, slots, resident, ready), label=label,
        resident=resident, party=party,
    )
    placed = {task.label.removeprefix(f"{label}:"): task for task in tasks}
    names = {slot: f"h2d:{slot}" for slot in "EAFBZ"} | {"D": BEAVER_LEAD[party]}
    for slot, name in names.items():  # Fig. 5's uploads, then D
        if name in placed:
            key, life = slots[slot]
            ctx.rows.fill(party, key, bases[slot], placed[name], life)
    for _c_sized in ("G1", "G2", "C"):
        ctx.rows.fill(party, None, bases["C"], None, "op")
    return tasks[-1]


class Beaver2PCBackend(ProtocolBackend):
    name = "beaver2pc"
    n_parties = 2
    needs_dealer = True
    compare_parties = (0, 1)

    # --- share algebra ------------------------------------------------------

    def share_secret(self, secret, rng):
        # Returns the classic SharePair (indexable; .share0/.share1 kept
        # for the existing 2-party call sites).
        return share_secret(secret, rng)

    def reconstruct(self, shares):
        return reconstruct(shares[0], shares[1])

    def truncate_values(self, shares, bits):
        return tuple(truncate_share(shares[i], bits, i) for i in (0, 1))

    # --- client upload accounting -------------------------------------------

    def upload_nbytes(self, nbytes):
        return nbytes

    def upload_payloads(self, shares):
        return (shares[0], shares[1])

    # --- interactive protocols ----------------------------------------------

    def truncate(self, ctx, x, *, label):
        """Local-truncation rescale of a double-scale product (both servers)."""
        frac = ctx.encoder.frac_bits
        shares = []
        tasks = []
        for i in (0, 1):
            result, task = ctx.server_cpu[i].elementwise(
                lambda s, i=i: truncate_share(s, frac, i),
                [x.shares[i]],
                deps=_deps(x.tasks[i]),
                label=label,
            )
            shares.append(result)
            tasks.append(task)
        return SharedTensor(ctx=ctx, shares=tuple(shares), kind="fixed", tasks=tuple(tasks))

    def matmul(self, ctx, x, y, *, label, rescale=False):
        # --- offline ---------------------------------------------------------
        triplet = ctx.get_matrix_triplet(label, x.shape, y.shape, operands=(x, y))

        # --- reconstruct (online, CPU + network) -----------------------------
        starts = [_chain(ctx, _deps(x.tasks[i], y.tasks[i])) for i in (0, 1)]
        e, f, ready = _open_operands(
            ctx, label, triplet, x, y, starts,
            # a stack crosses the wire as one (B*rows, cols) matrix, a matrix as itself
            lambda a: a.reshape(math.prod(a.shape[:-1]), a.shape[-1]),
        )

        # --- Eq. 8 (online) --------------------------------------------------
        # One upload per value: the operands somebody can ask for again
        # stay in the parties' row tables, in their value's base layout,
        # and the plan is priced without what server 0 already holds.
        slots = _slots(ctx, label, triplet, x, y)
        keep = {slot: key for slot, (key, life) in slots.items() if life != "op"}
        resident = _resident(ctx.rows.table(0), keep)
        dims = gemm_dims(x.shape, y.shape)
        decision = ctx.profiler.place_gemm(
            *dims, plan="beaver2pc", resident=resident,
            parties=tuple(
                (cpu, gpu, _reads(ctx, i, slots, resident, ready[i]))
                for i, (cpu, gpu) in enumerate(zip(ctx.server_cpu, ctx.server_gpu))
            ),
        )
        bits = ctx.encoder.frac_bits if rescale else 0
        shares = []
        tasks = []
        for i in (0, 1):
            tshare = triplet.share_for(i)
            tshare.mark_consumed()
            # C_i = [D | E] @ [F ; B_i] + Z_i with D = (-i) E + A_i, the
            # GEMM shaped as the placed plan's: one fused product on a CPU,
            # D @ F and E @ B_i apart on a GPU (the fused copy of two large
            # operands costs more than a second small call saves)
            lead = x.shares[i] if i == 0 else ring_sub(x.shares[i], e)
            if decision.placement == "gpu" and ctx.server_gpu[i] is not None:
                c = ring_add(ring_matmul(lead, f), ring_matmul(e, y.shares[i]))
                tx, ty = x.transposed, y.transposed
                bases = {
                    "E": to_base_layout(e, tx), "A": to_base_layout(x.shares[i], tx),
                    "D": to_base_layout(lead, tx), "F": to_base_layout(f, ty),
                    "B": to_base_layout(y.shares[i], ty), "Z": tshare.z, "C": c,
                }
                tasks.append(_on_gpu(ctx, i, label, dims, slots, keep, bases, ready[i]))
            else:
                c = ring_matmul(np.concatenate([lead, e], -1), np.concatenate([f, y.shares[i]], -2))
                tasks.append(ctx.profiler.run_plan(
                    ctx.server_cpu[i], None, "beaver2pc", dims, deps=ready[i], label=label
                )[-1])
            shares.append(rescale_share(ring_add(c, tshare.z, out=c), bits, i))
        ctx.rows.end("op")
        _set_chain(ctx, tasks)
        return SharedTensor(ctx=ctx, shares=tuple(shares), kind="fixed", tasks=tuple(tasks))

    def elementwise_mul(self, ctx, x, y, *, label, rescale=False):
        triplet = ctx.get_elementwise_triplet(label, x.shape, operands=(x, y))
        starts = [_chain(ctx, _deps(x.tasks[i], y.tasks[i])) for i in (0, 1)]
        e, f, ready = _open_operands(
            ctx, label, triplet, x, y, starts,
            lambda a: a.reshape(a.shape[0], -1) if a.ndim != 2 else a,
        )

        bits = ctx.encoder.frac_bits if rescale else 0
        shares, tasks = [], []
        for i in (0, 1):
            shares.append(rescale_share(beaver_elementwise_share(
                i, e, f, x.shares[i], y.shares[i], triplet.share_for(i)
            ), bits, i))
            tasks.append(ctx.profiler.run_plan(
                ctx.server_cpu[i], ctx.server_gpu[i], "beaver2pc.mul", (x.nbytes,),
                deps=ready[i], label=label,
            )[-1])
        _set_chain(ctx, tasks)
        return SharedTensor(ctx=ctx, shares=tuple(shares), kind="fixed", tasks=tuple(tasks))

    def compare_const(self, ctx, x, threshold, *, label):
        c_enc = int(ctx.encoder.encode(np.float64(threshold)))
        bundle = ctx.gen_comparison_bundle(x.shape, label=label)
        res = secure_ge_const(x.shares[0], x.shares[1], c_enc, bundle)

        # Online cost: the ``compare`` plan's bit-ops on each server CPU,
        # plus the round traffic (one 8-byte opening, the borrow tree's five
        # bit rounds, B2A).
        start = _chain(ctx, _deps(*x.tasks))
        tasks = self._charge_compare(
            ctx, res, [_deps(x.tasks[i], *start) for i in (0, 1)], label=label
        )
        _set_chain(ctx, tasks)
        return SharedTensor(
            ctx=ctx, shares=(res.share0, res.share1), kind="indicator", tasks=tasks
        )
