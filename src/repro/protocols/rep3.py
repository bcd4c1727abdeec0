"""3-party replicated secret sharing (ABY3-style), dealer-free.

A value ``x`` splits into three additive shares ``x = x0 + x1 + x2``
and party ``p`` holds the pair ``(x_p, x_{p+1})`` (indices mod 3).
Because every share is held by two parties, multiplication needs no
Beaver triplets:

* **mul** — each party computes the local cross-term
  ``z_p = x_p * (y_p + y_{p+1}) + x_{p+1} * y_p`` (the nine share
  products are covered exactly once across the three parties), masks it
  with a PRG-derived zero-share ``alpha_p`` (``sum alpha = 0``), and
  sends ``c_p = z_p + alpha_p`` to party ``p-1`` — one resharing round,
  after which each party again holds a replicated pair of the product.
  For matmul the cross-term fuses into a single ``(m,2k)x(2k,n)`` ring
  GEMM ``[x_p | x_{p+1}] @ [(y_p + y_{p+1}) ; y_p]``, so the profiler's
  GPU placement applies unchanged; a ``(B,m,k) x (B,k,n)`` stack is the
  same GEMM batched over ``B``, reshared as one message per link.  A
  value's parts cross PCIe once: each party's row table keeps them
  under the value's uid for as long as the one lifetime rule both
  backends use says (:meth:`SecureContext.lifetime`), so a resident
  part is not uploaded again, and a resident right operand's
  ``y_p + y_{p+1}`` is not formed again.
* **truncation** — probabilistic pair truncation: party 0 folds its
  replicated pair and truncates ``(x0 + x1)`` as the positive share of
  a 2-sharing, parties 1 and 2 truncate ``x2`` as the negative share;
  one alpha-masked message (0 -> 2) restores the replicated layout.
  Same error bound as the SecureML 2-party rescale (off by at most one
  ulp with overwhelming probability).
* **comparison** — folded to the existing 2-party comparison core
  between parties 0 (``x0 + x1``) and 2 (``x2``); the indicator result
  is lifted back to a replicated 3-sharing with zero-share masking.

Every payload that reaches a server link is masked by zero-shares drawn
from per-op-stream PRG generators that persist across invocations, so
every batch gets fresh masks and the chi-square wire auditor sees
uniform ring noise, while an identical op sequence (replay, the
determinism tests) redraws the identical mask sequence.
"""

from __future__ import annotations

import numpy as np

from repro.comm.wire import frame_sizes
from repro.core.ops import _chain, _deps, _set_chain, truncate
from repro.core.tensor import SharedTensor
from repro.fixedpoint.ring import RING_DTYPE, ring_add, ring_matmul, ring_mul, ring_neg
from repro.fixedpoint.truncation import truncate_share
from repro.mpc.comparison import secure_ge_const
from repro.mpc.triplets import from_base_layout, to_base_layout
from repro.pipeline.profiler import REP3_SLOTS
from repro.protocols.base import ProtocolBackend
from repro.util.validation import gemm_dims


def _send_array(ctx, link, src, dst, tag, payload, deps, label):
    """One masked-array message, charged at its exact framed size.

    Rep3 never sends two messages on the same directed link in the same
    round (the resharing ring rotates one message per link), so there is
    nothing for a round coalescer to pack here.  Returns the delivery
    task after recording the transcript tap.
    """
    sizes = frame_sizes(tag, payload)
    task = link.send_framed(src, dst, sizes, deps=deps, label=label)
    ctx.record_wire(src, dst, tag, payload, nbytes=sizes.nbytes)
    return task


def rep3_share(secret: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``secret`` into three additive ring shares."""
    s0 = rng.integers(0, 2**64, size=secret.shape, dtype=np.uint64)
    s1 = rng.integers(0, 2**64, size=secret.shape, dtype=np.uint64)
    s2 = ring_add(s0, s1)
    ring_neg(s2, out=s2)
    ring_add(secret, s2, out=s2)
    return (s0, s1, s2)


def rep3_reconstruct(shares) -> np.ndarray:
    return ring_add(ring_add(shares[0], shares[1]), shares[2])


def rep3_cross_term(i: int, x_shares, y_shares) -> np.ndarray:
    """Party ``i``'s local elementwise cross-term of the product."""
    j = (i + 1) % 3
    return ring_add(
        ring_mul(x_shares[i], ring_add(y_shares[i], y_shares[j])),
        ring_mul(x_shares[j], y_shares[i]),
    )


def rep3_zero_shares(shape, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three pseudo-random ring tensors summing to zero."""
    a0 = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
    a1 = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
    a2 = ring_add(a0, a1)
    ring_neg(a2, out=a2)
    return (a0, a1, a2)


class Rep3Backend(ProtocolBackend):
    name = "rep3"
    n_parties = 3
    needs_dealer = False
    compare_parties = (0, 2)

    # --- share algebra ------------------------------------------------------

    def share_secret(self, secret, rng):
        return rep3_share(secret, rng)

    def reconstruct(self, shares):
        return rep3_reconstruct(shares)

    def truncate_values(self, shares, bits):
        # Pair truncation of the fold (s0 + s1, s2); pure algebra for the
        # wire-free public-scalar rescale (no re-randomization needed —
        # these values never leave the parties that computed them).
        fold = ring_add(shares[0], shares[1])
        t_a = truncate_share(fold, bits, 0, out=fold)
        t_b = truncate_share(shares[2], bits, 1)
        return (t_a, np.zeros(shares[0].shape, dtype=RING_DTYPE), t_b)

    # --- client upload accounting -------------------------------------------

    def upload_nbytes(self, nbytes):
        # each server receives its replicated pair: two shares
        return 2 * nbytes

    def upload_payloads(self, shares):
        return tuple((shares[i], shares[(i + 1) % 3]) for i in range(3))

    # --- zero-share PRG streams ---------------------------------------------

    def _zero_shares(self, ctx, label, shape):
        if ctx.config.fresh_triplets:
            # a fresh generator per (label, invocation of that label): a
            # stream's draws do not depend on what other streams drew
            # before it, so reordering independent products moves nothing
            counts = getattr(ctx, "_rep3_fresh", None)
            if counts is None:
                counts = ctx._rep3_fresh = {}
            seq = counts[label] = counts.get(label, -1) + 1
            return rep3_zero_shares(shape, ctx.seeds.generator(f"rep3-{label}#{seq}"))
        # One persistent generator per op-stream label, advancing across
        # invocations: batch k of a stream draws fresh masks, but the k-th
        # draw is identical in any rerun of the same op sequence.  A
        # restarting stream would repeat alphas across batches — paired
        # with the label-seeded comparison output mask that makes the
        # lift payloads near-identical batch to batch, which the wire
        # auditor's pooled byte histogram rightly flags.
        streams = getattr(ctx, "_rep3_streams", None)
        if streams is None:
            streams = ctx._rep3_streams = {}
        gen = streams.get(label)
        if gen is None:
            gen = streams[label] = ctx.seeds.generator(f"rep3/{label}")
        return rep3_zero_shares(shape, gen)

    def _reshare(self, ctx, z_parts, z_tasks, label):
        """One resharing round: mask with zero-shares, rotate one link.

        ``z_parts[i]`` is party i's cross-term; returns the new share
        triple plus per-share availability tasks.  Party i sends its
        masked term to party i-1, restoring the replicated layout.
        """
        alphas = self._zero_shares(ctx, label, z_parts[0].shape)
        nbytes = z_parts[0].nbytes
        masked, mask_tasks = [], []
        for i in range(3):
            # Expand the two pairwise PRG streams behind alpha_i, then mask.
            (t_prg,) = ctx.profiler.run_plan(
                ctx.server_cpu[i], None, "prg", (nbytes,),
                deps=_deps(z_tasks[i]), label=f"{label}:prg",
            )
            c_i, t_c = ctx.server_cpu[i].elementwise(
                ring_add, [z_parts[i], alphas[i]], deps=(t_prg,), label=f"{label}:mask"
            )
            masked.append(c_i)
            mask_tasks.append(t_c)
        tasks = []
        for i in range(3):
            dst = (i - 1) % 3
            link = ctx.server_link(i, dst)
            t = _send_array(
                ctx, link, f"server{i}", f"server{dst}", f"{label}/reshare{i}",
                masked[i], deps=(mask_tasks[i],), label=f"{label}:reshare",
            )
            tasks.append(t)
        return tuple(masked), tuple(tasks)

    # --- interactive protocols ----------------------------------------------

    def matmul(self, ctx, x, y, *, label, rescale=False):
        return self._then_truncate(self._matmul(ctx, x, y, label), rescale, label)

    def elementwise_mul(self, ctx, x, y, *, label, rescale=False):
        return self._then_truncate(self._elementwise_mul(ctx, x, y, label), rescale, label)

    @staticmethod
    def _then_truncate(out, rescale, label):
        """A product, where ``rescale`` run through the truncation
        protocol once the product has returned (and freed its buffers)."""
        return truncate(out, label=f"{label}:trunc") if rescale else out

    def _matmul(self, ctx, x, y, label):
        # A (B,m,k) x (B,k,n) stack is B cross-terms in one batched GEMM
        # and one reshare of the whole (B,m,n) result.
        dims = gemm_dims(x.shape, y.shape)
        life = ctx.lifetime(label, x, y)
        z_parts, z_tasks = [], []
        for i in range(3):
            j = (i + 1) % 3
            slots = {  # slot -> (row key, operand, its share in the slot or None: the sum, side)
                "A": (("share", x.uid), x, x.shares[i], "L"),
                "A2": (("next", x.uid), x, x.shares[j], "L"),
                "Y": (("sum", y.uid), y, None, "R"), "B": (("share", y.uid), y, y.shares[i], "R"),
            }
            rows = {slot: ctx.rows.get(i, key) for slot, (key, *_) in slots.items()}
            resident, held = [], set()
            for slot, (key, _tensor, _share, side) in slots.items():
                if rows[slot] is not None or key in held:
                    resident.append(slot)
                elif life[side] != "op":  # ``p @ p.T`` uploads it once
                    held.add(key)
            uploaded = tuple(row.task for row in rows.values() if row is not None)
            start = _chain(ctx, _deps(x.tasks[i], x.tasks[j], y.tasks[i], y.tasks[j]))
            if rows["Y"] is not None:  # formed once per resident value
                held_sum = rows["Y"].held.require_live()
                ysum, ready = from_base_layout(held_sum, y.shape, y.transposed), start
            else:
                ysum, t_sum = ctx.server_cpu[i].elementwise(
                    ring_add, [y.shares[i], y.shares[j]], deps=start, label=f"{label}:ysum"
                )
                ready = (t_sum,)
            left = np.concatenate([x.shares[i], x.shares[j]], axis=-1)
            right = np.concatenate([ysum, y.shares[i]], axis=-2)
            z_parts.append(ring_matmul(left, right))
            steps = ctx.profiler.run_plan(
                ctx.server_cpu[i], ctx.server_gpu[i], "rep3", dims, deps=(*ready, *uploaded),
                label=label, resident=tuple(sorted(resident)),
            )
            z_tasks.append(steps[-1])
            # every part uploaded fills a row with its side's lifetime, so a
            # value kept beyond this product stays; the GEMM output is an op row
            uploads = {task.label: task for task in steps}
            for pair, upload in zip(REP3_SLOTS, ("h2d:L", "h2d:R")):
                task = uploads.get(f"{label}:{upload}")
                for slot in pair:
                    key, tensor, share, side = slots[slot]
                    if task is None or ctx.rows.get(i, key) is not None:
                        continue
                    part = to_base_layout(ysum if share is None else share, tensor.transposed)
                    ctx.rows.fill(i, key, part, task, life[side])
            if f"{label}:d2h" in uploads:
                ctx.rows.fill(i, None, z_parts[i], None, "op")
        ctx.rows.end("op")
        shares, tasks = self._reshare(ctx, z_parts, z_tasks, label)
        _set_chain(ctx, tasks)
        return SharedTensor(ctx=ctx, shares=shares, kind="fixed", tasks=tasks)

    def _elementwise_mul(self, ctx, x, y, label):
        z_parts, z_tasks = [], []
        for i in range(3):
            j = (i + 1) % 3
            start = _chain(ctx, _deps(x.tasks[i], x.tasks[j], y.tasks[i], y.tasks[j]))
            z_parts.append(rep3_cross_term(i, x.shares, y.shares))
            z_tasks.append(ctx.profiler.run_plan(
                ctx.server_cpu[i], ctx.server_gpu[i], "rep3.mul", (x.nbytes,),
                deps=start, label=label,
            )[-1])
        shares, tasks = self._reshare(ctx, z_parts, z_tasks, label)
        _set_chain(ctx, tasks)
        return SharedTensor(ctx=ctx, shares=shares, kind="fixed", tasks=tasks)

    def truncate(self, ctx, x, *, label):
        frac = ctx.encoder.frac_bits
        # Pair truncation: party 0 folds and truncates (x0 + x1); parties
        # 1 and 2 both hold x2 and truncate it as the negative share.
        # The fold and both truncated halves are op-local buffers, so the
        # whole rescale runs in place on them.
        fold = ring_add(x.shares[0], x.shares[1])
        t_a = truncate_share(fold, frac, 0, out=fold)
        t_b = truncate_share(x.shares[2], frac, 1)
        alphas = self._zero_shares(ctx, label, x.shape)
        y0 = ring_add(t_a, alphas[0], out=t_a)
        y1 = alphas[1]
        y2 = ring_add(t_b, alphas[2], out=t_b)
        t0, t1, t2 = (
            ctx.profiler.run_plan(
                ctx.server_cpu[p], None, plan, (x.nbytes,), deps=deps, label=label
            )[-1]
            for p, plan, deps in (
                (0, "rep3.trunc0", _deps(x.tasks[0], x.tasks[1])),
                (1, "rep3.trunc", _deps(x.tasks[2])),
                (2, "rep3.trunc", _deps(x.tasks[2])),
            )
        )
        # One masked message restores the replicated layout: party 2 needs
        # the new share 0, which only party 0 can compute.
        link = ctx.server_link(0, 2)
        t_send = _send_array(
            ctx, link, "server0", "server2", f"{label}/lift", y0,
            deps=(t0,), label=f"{label}:lift",
        )
        tasks = (t_send, t1, t2)
        return SharedTensor(ctx=ctx, shares=(y0, y1, y2), kind="fixed", tasks=tasks)

    def compare_const(self, ctx, x, threshold, *, label):
        c_enc = int(ctx.encoder.encode(np.float64(threshold)))
        # Fold the replicated sharing onto the two comparing parties:
        # party 0 forms a = x0 + x1 locally, party 2 contributes b = x2,
        # and the existing 2-party comparison core runs unchanged.
        a = ring_add(x.shares[0], x.shares[1])
        b = x.shares[2]
        bundle = ctx.gen_comparison_bundle(x.shape, label=label)
        res = secure_ge_const(a, b, c_enc, bundle)

        run_plan = ctx.profiler.run_plan
        start = _chain(ctx, _deps(*x.tasks))
        (fold,) = run_plan(
            ctx.server_cpu[0], None, "pass", (x.nbytes,),
            deps=_deps(x.tasks[0], x.tasks[1], *start), label=f"{label}:fold",
        )
        done0, done2 = self._charge_compare(
            ctx, res, [(fold,), _deps(x.tasks[2], *start)], label=label
        )

        # Lift the 2-party indicator sharing (r at parties 0/2) back to a
        # replicated 3-sharing with zero-share masking; two masked
        # messages restore the pairs the other parties are missing.
        beta = self._zero_shares(ctx, f"{label}:lift", x.shape)
        r0 = ring_add(res.share0, beta[0])
        r1 = beta[1]
        r2 = ring_add(res.share1, beta[2])
        lift_tasks = [
            run_plan(
                ctx.server_cpu[p], None, "prg", (x.nbytes,), deps=_deps(dep), label=f"{label}:prg"
            )[-1]
            for p, dep in ((0, done0), (1, None), (2, done2))
        ]
        s02 = _send_array(
            ctx, ctx.server_link(0, 2), "server0", "server2", f"{label}/lift0", r0,
            deps=(lift_tasks[0],), label=f"{label}:lift",
        )
        s21 = _send_array(
            ctx, ctx.server_link(1, 2), "server2", "server1", f"{label}/lift2", r2,
            deps=(lift_tasks[2],), label=f"{label}:lift",
        )
        tasks = (s02, lift_tasks[1], s21)
        _set_chain(ctx, tasks)
        return SharedTensor(ctx=ctx, shares=(r0, r1, r2), kind="indicator", tasks=tasks)
