"""The paper's 2PC substrate: Beaver-triplet masked multiplication.

This is the framework's default backend.  Its wire behaviour is pinned
record for record by ``tests/data/beaver2pc_mlp_train_transcript.json``
(``scripts/gen_reference_transcript.py`` re-pins it when the protocol's
bytes move on purpose).

Two servers hold additive shares; a trusted dealer (the data-owning
client, per the paper) provisions Beaver triplets and comparison
bundles in the offline phase.  Multiplication opens the masked
differences ``E = X - U`` / ``F = Y - V`` (Eq. 4-5) through the
delta-compression layer and applies the fused Eq. 8 product on the
placement the profiler picks; truncation is the SecureML share-local
rescale.

A mask belongs to a value, so a value is opened once: a multiplication
round has two, one or no live halves (:func:`_open_operands`) — a half
the servers already hold under this very mask, from an earlier product
of the step or, for an unchanged weight, from an earlier step, is
served from the context's mask table and never sent (DESIGN §5b, §5e).
"""

from __future__ import annotations

import numpy as np

from repro.comm.wire import RoundCoalescer, blob_frame_sizes
from repro.core import ops as core_ops
from repro.core.ops import _chain, _deps, _set_chain
from repro.core.tensor import SharedTensor
from repro.fixedpoint.ring import ring_add, ring_sub
from repro.fixedpoint.truncation import truncate_share
from repro.mpc.comparison import secure_ge_const
from repro.mpc.protocol import beaver_elementwise_share
from repro.mpc.shares import reconstruct, share_secret
from repro.pipeline.scheduler import schedule_secure_gemm
from repro.protocols.base import ProtocolBackend
from repro.util.errors import ProtocolError


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
        scan = ctx.server_reconstruct_cpu[src].run(
            ctx.config.cpu_spec.elementwise_seconds(
                sum(local.nbytes for _payload, local in payloads[src]),
                parallel=ctx.config.cpu_parallel,
            )
            * (0.5 if ctx.config.compression else 0.0),
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

    ``E`` and ``F`` are treated alike, through the context's mask table.
    A side whose mask already holds this very value — an unchanged
    weight's ``F`` from an earlier step, or a value another product of
    this step opened (``X`` for ``X W`` and ``X^T d``, ``d`` for ``X^T d``
    and ``d W^T``) — is *served*: no subtract, no frame part, no
    combine, and its consumer waits on the recorded ready tasks.  The
    rest are *live* and opened in one :func:`_exchange_round`; when the
    two sides are one value under one mask (``p * p``) the second is
    served from the first.  ``flat`` lays a live half out as the 2-D
    matrix that crosses the wire.

    Returns ``(E, F, ready)``: each matrix shaped like its operand, and
    ``ready[i]`` the tasks server ``i``'s product waits on — the
    combines of the live sides, the recorded ready tasks of the served
    ones and, as a served side was not subtracted here, the operands
    (``starts[i]``, with the serialisation chain).
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
    for i in (0, 1):
        for name, operand, mask, _view in sides:
            if name in live:
                local, task = ctx.server_reconstruct_cpu[i].elementwise(
                    ring_sub, [operand.shares[i], mask[i]],
                    deps=starts[i], label=f"{label}:{name}{i}",
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
    ready = [
        _deps(*(() if len(live) == 2 else starts[i]), *e_tasks[i : i + 1], *f_tasks[i : i + 1])
        for i in (0, 1)
    ]
    return e, f, ready


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

    def matmul(self, ctx, x, y, m, k, n, both_fixed, *, label, truncate_result):
        stacked = x.ndim == 3  # (B,m,k) x (B,k,n): B products, one of everything
        # --- offline ---------------------------------------------------------
        triplet = ctx.get_matrix_triplet(label, x.shape, y.shape, operands=(x, y))

        # --- reconstruct (online, CPU + network) -----------------------------
        starts = [_chain(ctx, _deps(x.tasks[i], y.tasks[i])) for i in (0, 1)]
        e, f, ready = _open_operands(
            ctx, label, triplet, x, y, starts,
            # a stack crosses the wire as one (B*rows, cols) matrix
            (lambda a: a.reshape(-1, a.shape[-1])) if stacked else (lambda a: a),
        )

        # --- GPU operation (online) ------------------------------------------
        if stacked:
            decision = ctx.profiler.place_gemm_batched(x.shape[0], m, 2 * k, n)
        else:
            decision = ctx.profiler.place_gemm(m, 2 * k, n, operands_on_gpu=False)
        # One upload per value: the operands somebody can ask for again
        # stay in the server's device table, in their value's base layout.
        keep = ctx.device_keep(triplet, x, y)
        shares = []
        tasks = []
        for i in (0, 1):
            tshare = triplet.share_for(i)
            if decision.placement == "gpu" and ctx.server_gpu[i] is not None:
                result = schedule_secure_gemm(
                    ctx.server_gpu[i],
                    i,
                    e,
                    f,
                    x.shares[i],
                    y.shares[i],
                    tshare,
                    deps=ready[i],
                    pipeline=ctx.config.pipeline1,
                    table=ctx.device_table(i),
                    keep=keep,
                    trans=(x.transposed, y.transposed),
                )
                shares.append(result.c_share)
                tasks.append(result.done)
            else:
                tshare.mark_consumed()
                lead = x.shares[i] if i == 0 else ring_sub(x.shares[i], e)
                left = np.concatenate([lead, e], axis=-1)
                right = np.concatenate([f, y.shares[i]], axis=-2)
                cpu = ctx.server_cpu[i]
                prod, tg = (cpu.gemm_ring_batched if stacked else cpu.gemm_ring)(
                    left, right, deps=ready[i], label=f"{label}:cpu_gemm"
                )
                c_i, tc = ctx.server_cpu[i].elementwise(
                    ring_add, [prod, tshare.z], deps=(tg,), label=f"{label}:+Z"
                )
                shares.append(c_i)
                tasks.append(tc)
        _set_chain(ctx, tasks)
        out = SharedTensor(ctx=ctx, shares=tuple(shares), kind="fixed", tasks=tuple(tasks))
        if both_fixed and truncate_result:
            out = core_ops.truncate(out, label=f"{label}:trunc")
        elif not both_fixed:
            # fixed x indicator (or indicator x fixed) stays at single scale.
            out.kind = "fixed" if (x.kind == "fixed" or y.kind == "fixed") else "indicator"
        return out

    def elementwise_mul(self, ctx, x, y, *, label):
        triplet = ctx.get_elementwise_triplet(label, x.shape, operands=(x, y))
        starts = [_chain(ctx, _deps(x.tasks[i], y.tasks[i])) for i in (0, 1)]
        e, f, ready = _open_operands(
            ctx, label, triplet, x, y, starts,
            lambda a: a.reshape(a.shape[0], -1) if a.ndim != 2 else a,
        )

        nbytes = x.nbytes
        decision = ctx.profiler.place_elementwise(4 * nbytes, operands_on_gpu=False)
        shares, tasks = [], []
        for i in (0, 1):
            tshare = triplet.share_for(i)
            compute = lambda i=i, tshare=tshare: beaver_elementwise_share(
                i, e, f, x.shares[i], y.shares[i], tshare
            )
            if decision.placement == "gpu" and ctx.server_gpu[i] is not None:
                gpu = ctx.server_gpu[i]
                bufs = []
                tdeps = list(ready[i])
                for arr, nm in ((e, "E"), (f, "F"), (x.shares[i], "A"), (y.shares[i], "B")):
                    buf, tt = gpu.h2d(arr, deps=ready[i], label=f"{label}:h2d:{nm}")
                    bufs.append(buf)
                    tdeps.append(tt)
                c_i = compute()
                out_buf = gpu.pool.allocate(c_i)
                tk = gpu.clock.run(
                    gpu.stream(0),
                    gpu.spec.elementwise_seconds(5 * nbytes),
                    deps=tuple(tdeps),
                    label=f"{label}:kernel",
                )
                _, tout = gpu.d2h(out_buf, deps=(tk,), label=f"{label}:d2h")
                for b in bufs + [out_buf]:
                    gpu.free(b)
                shares.append(c_i)
                tasks.append(tout)
            else:
                c_i = compute()
                tk = ctx.server_cpu[i].run(
                    ctx.config.cpu_spec.elementwise_seconds(
                        5 * nbytes, parallel=ctx.config.cpu_parallel
                    ),
                    deps=ready[i],
                    label=f"{label}:cpu",
                )
                shares.append(c_i)
                tasks.append(tk)
        _set_chain(ctx, tasks)
        out = SharedTensor(ctx=ctx, shares=tuple(shares), kind="fixed", tasks=tuple(tasks))
        if x.kind == "fixed" and y.kind == "fixed":
            out = core_ops.truncate(out, label=f"{label}:trunc")
        elif x.kind == "indicator" and y.kind == "indicator":
            out.kind = "indicator"
        return out

    def compare_const(self, ctx, x, threshold, *, label):
        c_enc = int(ctx.encoder.encode(np.float64(threshold)))
        bundle = ctx.gen_comparison_bundle(x.shape, label=label)
        res = secure_ge_const(x.shares[0], x.shares[1], c_enc, bundle)

        # Online cost: ~70 vectorised bit-ops per element on each server CPU,
        # plus the round traffic (one 8-byte opening + 62 bit rounds + B2A).
        n = int(np.prod(x.shape))
        start = _chain(ctx, _deps(*x.tasks))
        cpu_tasks = [
            ctx.server_cpu[i].run(
                ctx.config.cpu_spec.elementwise_seconds(70 * n, parallel=ctx.config.cpu_parallel),
                deps=_deps(x.tasks[i], *start),
                label=f"{label}:gmw",
            )
            for i in (0, 1)
        ]
        half = res.online_bytes // 2
        extra_latency = (res.rounds - 1) * ctx.config.server_link.latency_s
        # The bit rounds are costed in aggregate, so frame them as one
        # opaque blob: header once, body = the aggregate bytes.
        sizes = blob_frame_sizes(f"{label}:rounds", half)
        net_tasks = []
        for src in (0, 1):
            t = ctx.server_channel.send_framed(
                f"server{src}", f"server{1 - src}", sizes,
                deps=(cpu_tasks[src],), label=f"{label}:rounds",
            )
            # Size-only transcript record: the per-round content of the
            # GMW bit rounds is not materialized here.
            ctx.record_wire(
                f"server{src}", f"server{1 - src}", f"{label}:rounds", nbytes=sizes.nbytes
            )
            t2 = ctx.online_clock.run(
                f"link.server{src}->server{1 - src}", extra_latency, deps=(t,), label=f"{label}:latency"
            )
            net_tasks.append(t2)
        tasks = tuple(
            ctx.online_clock.join([cpu_tasks[i], net_tasks[1 - i]]) for i in (0, 1)
        )
        _set_chain(ctx, tasks)
        return SharedTensor(
            ctx=ctx, shares=(res.share0, res.share1), kind="indicator", tasks=tasks
        )
