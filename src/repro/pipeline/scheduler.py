"""Pipeline 1: overlapping PCIe transfers with the Eq. 8 sub-kernels.

Fig. 5 of the paper decomposes the online GPU operation

    C_i = [ ((-i)*E + A_i) | E ] @ [ F ; B_i ] + Z_i

into sub-steps whose inputs arrive one PCIe transfer at a time:

    transfers:  E  ->  A_i  ->  F  ->  B_i  ->  Z_i   (H2D engine, Fig. 5 order)
    kernels:        D = (-i)E + A_i  ->  [G1, G2] = [D, E] @ [F, B_i]
                                     ->  C = G1 + G2 + Z_i  (+ rescale)

``D @ F`` and ``E @ B_i`` have one shape and one pair of ``op()``
flags, so they are one pointer-array batched GEMM launch
(``cublasGemmBatchedEx``), priced as a stack of two.  A fixed x fixed
product's SecureML local truncation runs inside the ``C`` kernel, at
the bytes that pass already touches, so no rescale pass follows.

With the pipeline on, each kernel depends only on the transfers it
actually needs, so ``D`` runs while ``F`` is still on the bus and the
GEMM waits for ``D``, ``F``, ``E`` and ``B_i`` but not ``Z_i`` — Fig.
5's overlap.  With it off, every kernel waits for *all* transfers
instead (the naive copy-everything-then-launch structure), which is the
ablation baseline.

Each transfer waits on its own readiness, not on the slowest one: ``E``,
``F`` and ``Z_i`` on the ``E``/``F`` opening (``deps``), the server's
own shares ``A_i``/``B_i`` on the operands' tasks (``share_deps``) —
they exist before the exchange starts.  The slots are issued in Fig. 5's
order, and the clock places each in the first idle gap of the H2D
engine that holds it (:class:`~repro.simgpu.clock.SimClock`): ``E``
waiting on the wire leaves a gap that ``A_i`` fills, so the server's
own shares cross PCIe while ``E``/``F`` are exchanged where they fit
whole in that gap, no transfer starts later than in Fig. 5's order,
and the kernels' dependency edges do not change.  A share that does
not fit follows ``E`` or ``F``, and the GEMM waits for it; the
profiler prices it (``StepProfiler.shares_under_exchange``).

A value is uploaded once.  The caller owns one device table per server
GPU, ``(what, uid) -> (buffer, upload task)``, and says which of this
product's operands somebody can ask for again (``keep``: slot name ->
row key).  A slot whose row is in the table is simply empty — no
transfer, no PCIe charge, the kernels wait on the recorded task; a kept
slot that is not there yet is uploaded and left allocated; every other
buffer is freed on return.  ``D`` lives beside the ``E`` it was
computed from, so its kernel runs once per value — and where ``D`` is
there, nothing reads ``A_i``: its slot is empty too.  A static value's
own share (a weight's ``B_i``) is kept from its first product until the
value is replaced or collected (``SecureContext.device_keep_shares``),
so a warm inference batch, whose weight ``F`` and ``Z`` are kept as
well, places only ``E`` and ``A_i``: with the exchange down to one small
``E``, a re-uploaded ``B_i`` would be the transfer the exchange no
longer hides.  Buffers hold a value's *base* layout: an operand that is
the transpose of its value (``X^T`` in ``dW``, ``W^T`` in ``dX``) is read
through the GEMM's ``op(.)`` flag, and one that is a reshape of it
through a view, so ``X W`` and ``X^T d`` multiply the same upload.

The function really computes C_i (ring arithmetic via the device's
kernels) and returns the host-side result plus the dependency tasks the
caller (pipeline 2, in the training loop) needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fixedpoint.ring import ring_add, ring_sub
from repro.fixedpoint.truncation import rescale_share
from repro.mpc.triplets import TripletShare, to_base_layout
from repro.simgpu.clock import Task
from repro.simgpu.device import SimGPU
from repro.simgpu.memory import DeviceBuffer
from repro.util.errors import ProtocolError


@dataclass
class GemmScheduleResult:
    """Output of one scheduled secure GEMM."""

    c_share: np.ndarray  # host-side C_i
    done: Task  # completion of the D2H copy of C_i


def resident_slots(table: dict, keep: dict) -> tuple[str, ...]:
    """The slots :func:`schedule_secure_gemm` will place nothing for.

    ``E``, ``A``, ``F``, ``B`` and ``Z`` whose ``keep`` row ``table``
    holds (or an earlier slot of the same product uploads, as for
    ``p * p``), and ``D`` where its ``("lead", uid)`` row is there —
    what the profiler's ``beaver2pc`` plan leaves out of its price.
    """
    held, resident = set(table), []
    for slot in "EAFBZ":  # Fig. 5's order
        row = keep.get(slot)
        if row in held:
            resident.append(slot)
        elif row is not None:
            held.add(row)
    if "E" in keep and ("lead", keep["E"][1]) in table:
        resident.append("D")
    return tuple(sorted(resident))


def schedule_secure_gemm(
    gpu: SimGPU,
    party_id: int,
    e: np.ndarray,
    f: np.ndarray,
    a_share: np.ndarray,
    b_share: np.ndarray,
    triplet: TripletShare,
    deps: tuple[Task, ...] = (),
    *,
    share_deps: tuple[Task, ...] | None = None,
    pipeline: bool = True,
    stream: int = 0,
    table: dict | None = None,
    keep: dict | None = None,
    trans: tuple[bool, bool] = (False, False),
    rescale_bits: int = 0,
) -> GemmScheduleResult:
    """Run the Eq. 8 GPU operation for one server with/without pipeline 1.

    The operands are matrices or equal-depth ``(B, rows, cols)`` stacks;
    a stack takes the same transfers and kernels, each over the whole
    stack.

    ``deps`` are what the opened ``E``/``F`` (and so ``E``, ``F`` and
    ``Z_i``'s uploads) wait on; ``share_deps`` what this server's shares
    ``A_i``/``B_i`` wait on (default: ``deps``).  The uploads are issued
    in Fig. 5's order.

    ``table`` is this GPU's device table, ``(what, uid) -> (buffer,
    upload task)``, read and updated here; ``keep`` maps a slot name
    (``"E"``, ``"A"``, ``"F"``, ``"B"``, ``"Z"``) to the row that holds
    its operand.  A kept slot found in the table is used as is; one not
    found is uploaded and left allocated under its key; a slot not in
    ``keep`` is freed on return.
    ``D`` is kept (as ``("lead", uid)``) wherever ``E`` is, and ``A_i``
    is not uploaded where ``D`` is found.  ``trans``
    says, per side, that the operand is the transpose of its value's
    base layout: the base layout is what is uploaded and looked up, and
    the GEMM reads it through its ``trans_a`` / ``trans_b`` flags.
    ``rescale_bits`` is the number of fractional bits the ``C`` kernel
    truncates the share by (SecureML's local truncation; 0: none).
    """
    if party_id not in (0, 1):
        raise ProtocolError(f"party_id must be 0 or 1, got {party_id}")
    if triplet.party_id != party_id:
        raise ProtocolError(
            f"triplet share belongs to party {triplet.party_id}, used by party {party_id}"
        )
    triplet.mark_consumed()
    table = {} if table is None else table
    keep = keep or {}
    share_deps = deps if share_deps is None else share_deps
    trans_a, trans_b = trans
    transient: list[DeviceBuffer] = []

    def row(key, produce) -> tuple[DeviceBuffer, Task]:
        """Row ``key`` of the table, or what ``produce`` places now."""
        if key in table:  # a value is uploaded, and its D computed, once
            return table[key]
        buf, task = produce()
        if key is None:
            transient.append(buf)
        else:
            table[key] = (buf, task)
        return buf, task

    d_key = ("lead", keep["E"][1]) if "E" in keep else None
    operands = {"E": (e, trans_a), "A": (a_share, trans_a), "F": (f, trans_b)}
    operands.update(B=(b_share, trans_b), Z=(triplet.z, False))
    if d_key in table:  # A_i's only reader, the D kernel, has run: an empty slot
        del operands["A"]
    rows = {}
    for name, (array, flipped) in operands.items():  # Fig. 5's order; ``p * p`` shares a row
        base, slot_deps = to_base_layout(array, flipped), share_deps if name in "AB" else deps
        buf, task = row(keep.get(name), lambda: gpu.h2d(base, deps=slot_deps, label=f"h2d:{name}"))
        rows[name] = (buf.view(base.shape), task)  # a reshaped use reads the same bytes
    (e_buf, t_e), (f_buf, t_f), (b_buf, t_b), (z_buf, t_z) = (rows[n] for n in "EFBZ")
    a_buf, t_a = rows["A"] if "A" in rows else (None, table[d_key][1])
    all_transfers_done = (t_e, t_a, t_f, t_b, t_z)

    def kdeps(*needed: Task) -> tuple[Task, ...]:
        """Kernel dependencies: only what's needed (pipeline) or everything."""
        return needed if pipeline else all_transfers_done

    # D = (-i) * E + A_i  (for party 0 this is just A_i, but the paper's
    # schedule runs the kernel unconditionally and so do we — it is the
    # step that hides F's transfer; no kernel writes to its inputs, so
    # D=A is charged and accounted without copying the payload).  D
    # lives beside the E it was computed from.
    def lead():
        if party_id == 0:
            return gpu.elementwise(lambda a: a, [a_buf], deps=kdeps(t_e, t_a), label="D=A")
        return gpu.elementwise(ring_sub, [a_buf, e_buf], deps=kdeps(t_e, t_a), label="D=A-E")

    d_buf, t_d = row(d_key, lead)
    d_buf = d_buf.view(e_buf.shape)

    # G1 = D @ F and G2 = E @ B_i: one shape, one pair of op() flags, so
    # one pointer-array batched launch, which waits for both F and B_i
    # (D's kernel runs under their transfers).  A stack is one launch too.
    (g1_buf, g2_buf), t_g = gpu.gemm_ring(
        [d_buf, e_buf], [f_buf, b_buf], deps=kdeps(t_d, t_f, t_e, t_b),
        label="[D,E]@[F,B]", stream=stream, trans_a=trans_a, trans_b=trans_b,
    )

    # C = G1 + G2 + Z_i (fused via the ring ops' out= fast path: one
    # intermediate, written in place by the second add), rescaled in
    # place in the same pass.
    def _fuse_c(x, y, z):
        tmp = ring_add(x, y)
        return rescale_share(ring_add(tmp, z, out=tmp), rescale_bits, party_id)

    c_buf, t_sum = gpu.elementwise(
        _fuse_c, [g1_buf, g2_buf, z_buf], deps=kdeps(t_g, t_z), label="C=G1+G2+Z"
    )

    c_host, t_out = gpu.d2h(c_buf, deps=(t_sum,), label="d2h:C")

    for buf in (*transient, g1_buf, g2_buf, c_buf):
        gpu.free(buf)

    return GemmScheduleResult(c_share=c_host, done=t_out)
