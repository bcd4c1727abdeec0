"""Pipeline 1: overlapping PCIe transfers with the Eq. 8 sub-kernels.

Fig. 5 of the paper decomposes the online GPU operation

    C_i = [ ((-i)*E + A_i) | E ] @ [ F ; B_i ] + Z_i

into sub-steps whose inputs arrive one PCIe transfer at a time:

    transfers:  E  ->  A_i  ->  F  ->  B_i  ->  Z_i   (H2D engine, serial)
    kernels:        D = (-i)E + A_i  ->  G1 = D @ F  ->  G2 = E @ B_i
                                                      -> C = G1 + G2 + Z_i

With the pipeline on, each kernel depends only on the transfers it
actually needs, so ``D`` runs while ``F`` is still on the bus and
``D @ F`` runs while ``B_i`` is on the bus — Fig. 5's overlap.  With it
off, every kernel additionally waits for *all* transfers (the naive
copy-everything-then-launch structure), which is the ablation baseline.

A value is uploaded once.  The caller owns one device table per server
GPU, ``(what, uid) -> (buffer, upload task)``, and says which of this
product's operands somebody can ask for again (``keep``: slot name ->
row key).  A slot whose row is in the table is simply empty — no
transfer, no PCIe charge, the kernels wait on the recorded task; a kept
slot that is not there yet is uploaded at its own place in the sequence
and left allocated; every other buffer is freed on return.  ``D`` lives
beside the ``E`` it was computed from, so its kernel runs once per
value — and where ``D`` is there, nothing reads ``A_i``: its slot is
empty too.  Buffers hold a value's *base* layout: an operand that is the
transpose of its value (``X^T`` in ``dW``, ``W^T`` in ``dX``) is read
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
    gpu_done: Task  # completion of the last kernel (C_i still on device)
    transfer_seconds: float  # total PCIe time charged
    kernel_seconds: float  # total kernel time charged


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
    pipeline: bool = True,
    stream: int = 0,
    table: dict | None = None,
    keep: dict | None = None,
    trans: tuple[bool, bool] = (False, False),
) -> GemmScheduleResult:
    """Run the Eq. 8 GPU operation for one server with/without pipeline 1.

    The operands are matrices or equal-depth ``(B, rows, cols)`` stacks;
    a stack takes the same transfers and kernels, each over the whole
    stack.

    ``table`` is this GPU's device table, ``(what, uid) -> (buffer,
    upload task)``, read and updated here; ``keep`` maps a slot name
    (``"E"``, ``"A"``, ``"F"``, ``"B"``, ``"Z"``) to the row that holds
    its operand.  A kept slot found in the table is used as is; one not
    found is uploaded at its own place in the sequence and left
    allocated under its key; a slot not in ``keep`` is freed on return.
    ``D`` is kept (as ``("lead", uid)``) wherever ``E`` is, and ``A_i``
    is not uploaded where ``D`` is found.  ``trans``
    says, per side, that the operand is the transpose of its value's
    base layout: the base layout is what is uploaded and looked up, and
    the GEMMs read it through their ``trans_a`` / ``trans_b`` flags.
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
    trans_a, trans_b = trans
    fresh: list[Task] = []  # the uploads and the D kernel this call placed itself
    transient: list[DeviceBuffer] = []

    def row(key, produce) -> tuple[DeviceBuffer, Task]:
        """Row ``key`` of the table, or what ``produce`` places now."""
        if key in table:  # a value is uploaded, and its D computed, once
            return table[key]
        buf, task = produce()
        fresh.append(task)
        if key is None:
            transient.append(buf)
        else:
            table[key] = (buf, task)
        return buf, task

    def upload(name: str, array: np.ndarray, transposed: bool = False):
        """One slot of Fig. 5's H2D order; the engine serialises them."""
        base = to_base_layout(array, transposed)
        buf, task = row(keep.get(name), lambda: gpu.h2d(base, deps=deps, label=f"h2d:{name}"))
        return buf.view(base.shape), task  # a reshaped use reads the same bytes

    d_key = ("lead", keep["E"][1]) if "E" in keep else None
    e_buf, t_e = upload("E", e, trans_a)
    if d_key in table:  # A_i's only reader, the D kernel, has run: an empty slot
        a_buf, t_a = None, table[d_key][1]
    else:
        a_buf, t_a = upload("A", a_share, trans_a)
    f_buf, t_f = upload("F", f, trans_b)
    b_buf, t_b = upload("B", b_share, trans_b)
    z_buf, t_z = upload("Z", triplet.z)
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

    # G1 = D @ F overlaps B_i's transfer; G2 = E @ B_i follows.  A stack
    # of products is one strided-batched launch each.
    gemm = gpu.gemm_ring_batched if e.ndim == 3 else gpu.gemm_ring
    flags = {"stream": stream, "trans_a": trans_a, "trans_b": trans_b}
    g1_buf, t_g1 = gemm(d_buf, f_buf, deps=kdeps(t_d, t_f), label="D@F", **flags)
    g2_buf, t_g2 = gemm(e_buf, b_buf, deps=kdeps(t_g1, t_b), label="E@B", **flags)

    # C = G1 + G2 + Z_i (fused via the ring ops' out= fast path: one
    # intermediate, written in place by the second add).
    def _fuse_c(x, y, z):
        tmp = ring_add(x, y)
        return ring_add(tmp, z, out=tmp)

    c_buf, t_sum = gpu.elementwise(
        _fuse_c,
        [g1_buf, g2_buf, z_buf],
        deps=kdeps(t_g1, t_g2, t_z),
        label="C=G1+G2+Z",
    )

    c_host, t_out = gpu.d2h(c_buf, deps=(t_sum,), label="d2h:C")

    for buf in (*transient, g1_buf, g2_buf, c_buf):
        gpu.free(buf)

    placed = (*fresh, t_g1, t_g2, t_sum, t_out)
    pcie = (gpu.h2d_engine, gpu.d2h_engine)
    return GemmScheduleResult(
        c_share=c_host,
        done=t_out,
        gpu_done=t_sum,
        transfer_seconds=sum(t.duration for t in placed if t.resource in pcie),
        kernel_seconds=sum(t.duration for t in placed if t.resource not in pcie),
    )
