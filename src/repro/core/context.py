"""SecureContext: the wired-up client + two-server deployment.

Mirrors the paper's Fig. 3 topology on simulated hardware:

* the **client** (data owner / trusted dealer) owns a CPU and a GPU on
  the *offline clock*: it encrypts (shares) inputs, generates Beaver
  triplets — accelerating ``Z = U x V`` on its GPU per Section 4.2 — and
  uploads the encrypted parts to the servers;
* **server 0 / server 1** each own a CPU and a GPU on the *online
  clock*; they run the reconstruct (CPU + inter-server channel) and GPU
  operation steps;
* the servers are linked by a 100 Gb/s channel with per-direction
  :class:`~repro.comm.compression.DeltaCompressor` state.

Two clocks, one rationale: the paper reports offline and online phases
as disjoint (Table 3 "occupancy"), with the offline phase completing
before the online phase starts.  Keeping each phase on its own clock
gives exactly that accounting while still modelling overlap *within*
each phase.

The context is also the dealer and the keeper of **the mask table**: a
Beaver mask belongs to a value (a tensor uid), not to an op stream.
:meth:`SecureContext._deal` deals a stream whose operand was already
opened this online step on the mask that opened it, and
:meth:`SecureContext.reuse_masked` / :meth:`SecureContext.store_masked`
let the protocol backend open every value once — within a step for any
tensor, across steps for an unchanged ``static`` one (DESIGN §5b).  The
servers' GPU memory follows the same rule — **the device table**, one
per server, keeps a value's operands where somebody can ask for them
again (:meth:`SecureContext.device_keep`), so a value is uploaded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.comm.channel import Channel
from repro.comm.compression import CompressionStats, DeltaCompressor
from repro.core.config import FrameworkConfig
from repro.faults.injector import FaultInjector
from repro.faults.reliable import ResilientChannel
from repro.fixedpoint.encoding import FixedPointEncoder
from repro.fixedpoint.ring import ring_add, ring_mul
from repro.mpc.comparison import ComparisonBundle, ComparisonDealer, comparison_offline_bytes
from repro.mpc.pool import TripletPool, TripletRequest
from repro.mpc.prandom import ThreadSafeGeneratorPool, parallel_uniform_ring
from repro.mpc.shares import SharePair
from repro.mpc.triplets import (
    BeaverMask,
    ElementwiseTriplet,
    MaskView,
    MatrixTriplet,
    from_base_layout,
    to_base_layout,
)
from repro.pipeline.profiler import StepProfiler
from repro.protocols import get_backend
from repro.simgpu.clock import SimClock
from repro.simgpu.device import SimCPU, SimGPU
from repro.telemetry import Telemetry
from repro.util.errors import ProtocolError
from repro.util.seeding import SeedSequenceFactory


@dataclass(frozen=True)
class PhaseMark:
    """Snapshot of both clocks, for measuring an experiment window."""

    offline_s: float
    online_s: float
    server_bytes: int
    uplink_bytes: int


@dataclass(frozen=True)
class PhaseDelta:
    """Difference between two marks: one experiment's cost."""

    offline_s: float
    online_s: float
    server_bytes: int
    uplink_bytes: int

    @property
    def total_s(self) -> float:
        return self.offline_s + self.online_s

    @property
    def occupancy(self) -> float:
        """Online share of total time (Table 3's metric)."""
        return self.online_s / self.total_s if self.total_s > 0 else 0.0


@dataclass
class _Opening:
    """One row of the mask table: what a Beaver mask opened."""

    mask: BeaverMask
    uid: int  # the value it opened
    epoch: int | None  # online step of that opening, or of its last hit
    static: bool  # the value outlives the step (an unchanged weight)
    opened: np.ndarray | None  # E or F in the value's base layout, if kept
    tasks: tuple = ()  # per server, the task after which it holds `opened`


class SecureContext:
    """Client + n servers with simulated devices and channels.

    The server count comes from the protocol backend
    (``config.backend``): two for the paper's ``beaver2pc``, three for
    ``rep3`` replicated sharing.
    """

    def __init__(self, config: FrameworkConfig | None = None):
        self.config = config or FrameworkConfig()
        cfg = self.config
        self.encoder = FixedPointEncoder(cfg.frac_bits)
        self.seeds = SeedSequenceFactory(cfg.seed)
        self.rng = self.seeds.generator("context")

        # The MPC substrate: share algebra + interactive protocols.
        # Everything below sizes itself off backend.n_parties (2 for the
        # paper's beaver2pc, 3 for replicated sharing).
        self.backend = get_backend(cfg.backend)
        self.n_parties = self.backend.n_parties

        # One telemetry surface for the whole deployment: every channel,
        # device and compressor below records into this registry, and
        # ``ctx.telemetry.snapshot()`` / ``report()`` read it back out.
        self.telemetry = Telemetry()

        # --- offline side (client) -------------------------------------------
        self.offline_clock = self._make_clock()
        self.offline_clock.set_tracing(cfg.trace)
        self.telemetry.register_clock("offline", self.offline_clock)
        # The client's encrypt path uses the Section 5.1 parallel MT19937
        # design when client_parallel is on (the default in both presets
        # — shared infrastructure); the cpu_parallel switch governs the
        # servers (see FrameworkConfig docs and the Fig. 14 ablation).
        self.client_cpu = SimCPU(
            self.offline_clock,
            cfg.cpu_spec,
            "client",
            parallel_enabled=cfg.client_parallel,
            telemetry=self.telemetry,
        )
        self.client_gpu = (
            SimGPU(
                self.offline_clock,
                cfg.gpu_spec,
                "clientgpu",
                n_streams=1,
                tensor_core=cfg.tensor_core,
                telemetry=self.telemetry,
            )
            if cfg.use_gpu
            else None
        )
        self.uplinks = [
            Channel(
                self.offline_clock, cfg.uplink, "client", f"server{i}", telemetry=self.telemetry
            )
            for i in range(self.n_parties)
        ]
        self.uplink0 = self.uplinks[0]
        self.uplink1 = self.uplinks[1]

        # --- online side (servers) --------------------------------------------
        self.online_clock = self._make_clock()
        self.online_clock.set_tracing(cfg.trace)
        self.telemetry.register_clock("online", self.online_clock)
        self.server_cpu = [
            SimCPU(
                self.online_clock,
                cfg.cpu_spec,
                f"s{i}",
                parallel_enabled=cfg.cpu_parallel,
                telemetry=self.telemetry,
            )
            for i in range(self.n_parties)
        ]
        # Pipeline 2 (Fig. 6): with the double pipeline on, each server
        # runs its reconstruct steps in a dedicated thread, so they can
        # overlap GPU operations of neighbouring layers.  Without it the
        # reconstruct work shares the single in-order CPU timeline.
        if cfg.double_pipeline:
            self.server_reconstruct_cpu = [
                SimCPU(
                    self.online_clock,
                    cfg.cpu_spec,
                    f"s{i}rec",
                    parallel_enabled=cfg.cpu_parallel,
                    telemetry=self.telemetry,
                )
                for i in range(self.n_parties)
            ]
        else:
            self.server_reconstruct_cpu = self.server_cpu
        self.server_gpu = [
            SimGPU(
                self.online_clock,
                cfg.gpu_spec,
                f"s{i}gpu",
                n_streams=cfg.n_streams,
                tensor_core=cfg.tensor_core,
                telemetry=self.telemetry,
            )
            if cfg.use_gpu
            else None
            for i in range(self.n_parties)
        ]
        # Fault tolerance: under a FaultPlan the server0<->server1 link
        # (the online hot path) becomes adversarial, and every
        # retransmission byte / backoff wait is charged on this clock
        # and channel so recovery costs show up in makespans.
        self.fault_injector = (
            FaultInjector(cfg.fault_plan, telemetry=self.telemetry)
            if cfg.fault_plan is not None
            else None
        )
        # One channel per server pair; server_channel stays the
        # historical alias for the (0, 1) link.
        self.server_links: dict[tuple[int, int], Channel] = {}
        for i in range(self.n_parties):
            for j in range(i + 1, self.n_parties):
                if (i, j) == (0, 1) and self.fault_injector is not None:
                    link = ResilientChannel(
                        self.online_clock,
                        cfg.server_link,
                        "server0",
                        "server1",
                        telemetry=self.telemetry,
                        injector=self.fault_injector,
                        policy=cfg.retry_policy,
                    )
                else:
                    link = Channel(
                        self.online_clock,
                        cfg.server_link,
                        f"server{i}",
                        f"server{j}",
                        telemetry=self.telemetry,
                    )
                self.server_links[(i, j)] = link
        self.server_channel = self.server_links[(0, 1)]
        self.compressors = {
            (0, 1): DeltaCompressor(
                cfg.compression_threshold,
                enabled=cfg.compression,
                telemetry=self.telemetry,
                direction="s0->s1",
            ),
            (1, 0): DeltaCompressor(
                cfg.compression_threshold,
                enabled=cfg.compression,
                telemetry=self.telemetry,
                direction="s1->s0",
            ),
        }

        # --- placement & offline material --------------------------------------
        self.profiler = StepProfiler(
            cfg.cpu_spec,
            cfg.gpu_spec,
            mode=cfg.placement_mode if cfg.use_gpu else "cpu_always",
            tensor_core=cfg.tensor_core,
            cpu_parallel=cfg.cpu_parallel,
        )
        self.comparison_dealer = ComparisonDealer(
            self.seeds.generator("comparison-dealer"),
            seeds=self.seeds.spawn("comparison-dealer"),
        )
        self._dealer_rng = self.seeds.generator("triplet-dealer")

        # triplet streams: one triplet per op label, reused across
        # iterations unless fresh_triplets (see FrameworkConfig docs)
        self._matrix_triplets: dict[str, MatrixTriplet] = {}
        self._elementwise_triplets: dict[str, ElementwiseTriplet] = {}

        # Batched offline provisioning (pool_size > 0): a shape-keyed
        # bank of pre-generated triplets, refilled by the fused batch
        # generators below on the offline clock.  Label-cache misses
        # draw from the pool before falling back to synchronous
        # generation; fresh_triplets bypasses the pool entirely.
        self._mask_pool = ThreadSafeGeneratorPool(
            min(8, cfg.cpu_spec.n_cores), seed=self.seeds.seed_for("triplet-pool")
        )
        self.triplet_pool = (
            TripletPool(
                self._gen_matrix_triplet_batch,
                self._gen_elementwise_triplet_batch,
                max_batch=cfg.pool_size,
                telemetry=self.telemetry,
            )
            if cfg.pool_size > 0 and self.backend.needs_dealer
            else None
        )

        # Online-step epoch for the per-batch consumption guard: drivers
        # call begin_batch() before each step; cached triplets then issue
        # one TripletShare per (epoch, party), so a second consume of the
        # same op stream within a step raises a labelled ProtocolError.
        self._batch_epoch: int | None = None

        # One mask per value: the mask table, mask uid -> what that mask
        # opened (see "the mask table" below), the (label, side) whose
        # masks other streams are dealt on, and one upload per value:
        # each server GPU's device table, (what, uid) -> (buffer, upload
        # task) (see "the device table" below).
        self._opened: dict[int, _Opening] = {}
        self._shared_sides: set[tuple[str, str]] = set()
        self._device: list[dict[tuple[str, int], tuple]] = [{} for _ in range(self.n_parties)]
        self._mask_reuse_hits = self.telemetry.counter(
            "mpc.mask_reuse.hits",
            "masked differences the servers already held, by side and scope (step|static)",
        )

        # offline-material accounting
        self._triplets_generated = self.telemetry.counter(
            "mpc.triplets_generated", "Beaver triplets produced offline, by kind and shape"
        )
        self._triplets_consumed = self.telemetry.counter(
            "mpc.triplets_consumed", "op-stream fetches of offline material"
        )
        self._comparisons = self.telemetry.counter(
            "mpc.comparisons_issued", "comparison bundles generated offline"
        )

        # Optional transcript recorder (repro.audit): when attached,
        # every wire charge — client uploads, masked-difference
        # exchanges, comparison rounds — is logged with its content
        # hash and clock time for replay and wire-view audits.
        self.recorder = None

    @classmethod
    def create(
        cls, config: FrameworkConfig | None = None, *, backend: str | None = None
    ) -> "SecureContext":
        """The blessed builder (what :func:`repro.api.session` returns).

        ``backend`` overrides the config's protocol backend — e.g.
        ``SecureContext.create(backend="rep3")`` for 3-party replicated
        sharing instead of the default ``beaver2pc``.
        """
        cfg = config or FrameworkConfig()
        if backend is not None and backend != cfg.backend:
            cfg = cfg.but(backend=backend)
        return cls(config=cfg)

    def _make_clock(self):
        """One phase clock per config.runtime: eager lockstep placement
        or the deferred dataflow scheduler (repro.runtime.dataflow)."""
        if self.config.runtime == "dataflow":
            from repro.runtime.dataflow import DataflowClock

            return DataflowClock()
        return SimClock()

    def finalize_runtime(self) -> None:
        """Flush any deferred dataflow windows (no-op under lockstep).

        Drivers call this before their final accounting so reported
        makespans reflect the committed schedule, not the provisional
        program-order estimates.
        """
        for clock in (self.offline_clock, self.online_clock):
            finalize = getattr(clock, "finalize", None)
            if finalize is not None:
                finalize()

    def server_link(self, i: int, j: int) -> Channel:
        """The channel between servers ``i`` and ``j`` (order-free)."""
        key = (i, j) if i < j else (j, i)
        return self.server_links[key]

    # -- thin views over the registry (historical counter surface) -------------

    @property
    def triplets_issued(self) -> int:
        return int(self._triplets_generated.value())

    # ------------------------------------------------------------------ phases

    def mark(self) -> PhaseMark:
        return PhaseMark(
            offline_s=self.offline_clock.now(),
            online_s=self.online_clock.now(),
            server_bytes=sum(link.total_bytes for link in self.server_links.values()),
            uplink_bytes=sum(up.total_bytes for up in self.uplinks),
        )

    def since(self, mark: PhaseMark) -> PhaseDelta:
        now = self.mark()
        return PhaseDelta(
            offline_s=now.offline_s - mark.offline_s,
            online_s=now.online_s - mark.online_s,
            server_bytes=now.server_bytes - mark.server_bytes,
            uplink_bytes=now.uplink_bytes - mark.uplink_bytes,
        )

    @property
    def compression_stats(self) -> CompressionStats:
        return self.compressors[(0, 1)].stats.merge(self.compressors[(1, 0)].stats)

    # ------------------------------------------------------- offline primitives

    def _charge_client_rng(self, nbytes: int, label: str) -> None:
        decision = self.profiler.place_rng(nbytes)
        if decision.placement == "gpu" and self.client_gpu is not None:
            # cuRAND generation + copy-back (the Fig. 7 trade-off; the
            # profiler only lands here for large matrices).
            gpu = self.client_gpu
            t = gpu.clock.run(
                gpu.stream(0), gpu.spec.curand_seconds(nbytes), label=f"{label}:curand"
            )
            gpu.clock.run(
                gpu.d2h_engine, gpu.spec.transfer_seconds(nbytes), deps=(t,), label=f"{label}:d2h"
            )
            return
        self.client_cpu.run(
            self.config.cpu_spec.rng_seconds(nbytes, parallel=self.config.client_parallel),
            label=label,
        )

    def _charge_client_elementwise(self, nbytes: int, label: str) -> None:
        self.client_cpu.run(
            self.config.cpu_spec.elementwise_seconds(
                nbytes, parallel=self.config.client_parallel
            ),
            label=label,
        )

    def attach_recorder(self, recorder=None, *, capture_payloads: bool = True):
        """Attach (or create) a transcript recorder for this deployment.

        From here on every wire charge is logged (see
        :mod:`repro.audit`); a resilient server channel also gets its
        frame path tapped so retransmissions show up.  Returns the
        recorder so callers can pull the transcript at the end.
        """
        if recorder is None:
            from repro.audit.transcript import TranscriptRecorder

            recorder = TranscriptRecorder(
                capture_payloads=capture_payloads, telemetry=self.telemetry
            )
        self.recorder = recorder
        transport = getattr(self.server_channel, "transport", None)
        if transport is not None and hasattr(transport, "attach_recorder"):
            transport.attach_recorder(recorder)
        return recorder

    def record_wire(
        self,
        src: str,
        dst: str,
        tag: str,
        payload=None,
        *,
        nbytes: int | None = None,
        clock: str = "online",
        masks: tuple | None = None,
    ) -> None:
        """Log one message on the attached recorder (no-op when absent).

        ``masks`` names, per payload part, the ``(mask uid, value uid)``
        of a masked difference — what the wire auditor's model is
        stated in — and the record carries the online step with it.
        """
        if self.recorder is None:
            return
        clk = self.offline_clock if clock == "offline" else self.online_clock
        self.recorder.record(
            src, dst, tag, payload, nbytes=nbytes, clock_s=clk.now(),
            masks=masks, step=self._batch_epoch if masks is not None else None,
        )

    def _upload(
        self,
        nbytes_per_server: int,
        label: str,
        contents: tuple | None = None,
        parties: tuple[int, ...] | None = None,
    ) -> None:
        """Charge the client->server transfer of offline material.

        ``contents`` optionally carries the per-server payloads (one
        entry per uploaded-to server, in ``parties`` order) so an
        attached recorder can hash and audit what each server actually
        received; without it the upload is logged size-only.  ``parties``
        restricts the upload to a subset of servers (e.g. the two
        comparing parties of a 3-party backend); default is all.
        """
        targets = tuple(range(self.n_parties)) if parties is None else tuple(parties)
        for i in targets:
            self.uplinks[i].send("client", f"server{i}", nbytes_per_server, label=label)
        if self.recorder is not None:
            for idx, i in enumerate(targets):
                self.record_wire(
                    "client", f"server{i}", label,
                    contents[idx] if contents is not None else None,
                    nbytes=nbytes_per_server, clock="offline",
                )

    def _client_matmul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Z = U x V on the client, GPU-accelerated when profitable.

        The paper's offline acceleration: this one product is >90% of
        the offline compute, so it goes to the client GPU; everything
        else stays on the CPU (Section 4.2).
        """
        m, k = u.shape
        n = v.shape[1]
        decision = self.profiler.place_gemm(m, k, n, operands_on_gpu=False)
        if decision.placement == "gpu" and self.client_gpu is not None:
            gpu = self.client_gpu
            u_buf, t_u = gpu.h2d(u, label="offline:h2d:U")
            v_buf, t_v = gpu.h2d(v, label="offline:h2d:V")
            z_buf, t_z = gpu.gemm_ring(u_buf, v_buf, deps=(t_u, t_v), label="offline:U@V")
            z, _ = gpu.d2h(z_buf, deps=(t_z,), label="offline:d2h:Z")
            for b in (u_buf, v_buf, z_buf):
                gpu.free(b)
            return z
        z, _ = self.client_cpu.gemm_ring(u, v, label="offline:U@V")
        return z

    def _share_with_timing(self, secret: np.ndarray, label: str):
        """Backend share split plus the client-side cost it implies.

        Returns the backend's share container (a :class:`SharePair` for
        2-party backends, a plain tuple otherwise) — always indexable by
        party.  Costs scale with the share count: n-1 mask draws and n
        subtract/copy passes.
        """
        n = self.n_parties
        self._charge_client_rng((n - 1) * secret.nbytes, f"{label}:rng")
        self._charge_client_elementwise(n * secret.nbytes, f"{label}:split")
        return self.backend.share_secret(secret, self.rng)

    def share_plain(self, plain: np.ndarray, label: str = "input"):
        """Encode and secret-share client data; charges encrypt + upload.

        The float->ring encoding is the dominant cost of the client's
        "generate the encrypted data" step (paper Fig. 2) and is common
        to both evaluated systems.
        """
        encoded = self.encoder.encode(plain)
        self.client_cpu.run(
            encoded.nbytes / (self.config.cpu_spec.encode_gbps * 1e9),
            label=f"{label}:encode",
        )
        pair = self._share_with_timing(encoded, label)
        self._upload(
            self.backend.upload_nbytes(encoded.nbytes),
            f"{label}:upload",
            contents=self.backend.upload_payloads(pair),
        )
        return pair

    def share_ring(self, encoded: np.ndarray, label: str = "input"):
        """Share an already-encoded ring matrix."""
        pair = self._share_with_timing(encoded, label)
        self._upload(
            self.backend.upload_nbytes(encoded.nbytes),
            f"{label}:upload",
            contents=self.backend.upload_payloads(pair),
        )
        return pair

    def _deal(self, tag: str, label: str, shapes, operands, product):
        """Deal ``(U, V, Z = product(U, V))`` for one op stream, fully costed.

        One mask per value: a side whose operand is a value some mask
        already opened this online step is dealt on that mask — ``U^T``
        for a transposed view, the same array reshaped for a reshaped
        one, ``V = U`` when both operands are the same value — and the
        dealer draws, splits and uploads only what is new.  Operands of
        ``None`` (standalone use), a context outside ``begin_batch``
        steps and a pooled one (the pool banked whole draws before the
        first step) deal every side its own mask.

        Returns the ``U``, ``V``, ``Z`` share pairs and the two
        :class:`~repro.mpc.triplets.MaskView`.
        """
        linking = self._links_masks and None not in operands
        flipped = [operand is not None and operand.transposed for operand in operands]
        # per side: the view on an existing mask, or None (draw a new one)
        views = [
            MaskView(mask, flipped[i])
            if linking and (mask := self._mask_opened_this_step(operand)) is not None
            else None
            for i, operand in enumerate(operands)
        ]
        # the same value on both sides (p * p): V is U, drawn once
        twin = linking and views == [None, None] and operands[0].uid == operands[1].uid
        new = [i for i in (0, 1) if views[i] is None and not (twin and i == 1)]
        pairs, plain = [None, None], []
        for i, shape in enumerate(shapes):
            if i in new:
                plain.append(self._dealer_rng.integers(0, 2**64, size=shape, dtype=np.uint64))
            elif views[i] is not None:  # the client knows its own masks
                pairs[i] = views[i].pair(shape)
                plain.append(np.ascontiguousarray(ring_add(pairs[i].share0, pairs[i].share1)))
            else:
                base = to_base_layout(plain[0], flipped[0])
                plain.append(np.ascontiguousarray(from_base_layout(base, shape, flipped[1])))
        if new:
            self._charge_client_rng(sum(plain[i].nbytes for i in new), f"{tag}:rng")
        z = product(plain[0], plain[1])
        for i, shape in enumerate(shapes):
            if i in new:
                owner = (label, "EF"[i])
                pairs[i] = self._share_with_timing(plain[i], f"{tag}:{'UV'[i]}")
                views[i] = MaskView.over(pairs[i], owner, flipped[i])
                # a root whose followers were learned on an earlier step
                # (fresh_triplets, a ragged batch) keeps its opening at once
                views[i].mask.shared = owner in self._shared_sides
                continue
            if views[i] is None:  # the twin: U's mask, as y lays it out
                views[i] = MaskView(views[0].mask, flipped[i])
                pairs[i] = views[i].pair(shape)
            views[i].mask.shared = True
            self._shared_sides.add(views[i].mask.owner)
        z_pair = self._share_with_timing(z, f"{tag}:Z")
        self._upload(
            sum(plain[i].nbytes for i in new) + z.nbytes, f"{tag}:upload",
            contents=tuple(
                (*(pairs[i][party] for i in new), z_pair[party]) for party in (0, 1)
            ),
        )
        return pairs[0], pairs[1], z_pair, tuple(views)

    def gen_matrix_triplet(
        self, shape_a, shape_b, *, label: str = "", operands=(None, None)
    ) -> MatrixTriplet:
        """Offline generation of one matrix Beaver triplet, fully costed
        (:meth:`_deal` has the one-mask-per-value rule)."""
        self._require_dealer("gen_matrix_triplet")
        shapes = (tuple(shape_a), tuple(shape_b))
        u, v, z, masks = self._deal(
            "triplet", label, shapes, operands,
            lambda u, v: (
                self._client_matmul(u, v) if u.ndim == 2 else self._client_matmul_batched(u, v)
            ),
        )
        self._triplets_generated.inc(1, kind="matrix", shape=f"{shapes[0]}x{shapes[1]}")
        return MatrixTriplet(u=u, v=v, z=z, shape_a=shapes[0], shape_b=shapes[1], masks=masks)

    def gen_elementwise_triplet(
        self, shape, *, label: str = "", operands=(None, None)
    ) -> ElementwiseTriplet:
        self._require_dealer("gen_elementwise_triplet")
        shape = tuple(shape)

        def product(u, v):
            self._charge_client_elementwise(3 * u.nbytes, "etriplet:mul")
            return ring_mul(u, v)

        u, v, z, masks = self._deal("etriplet", label, (shape, shape), operands, product)
        self._triplets_generated.inc(1, kind="elementwise", shape=str(shape))
        return ElementwiseTriplet(u=u, v=v, z=z, shape=shape, masks=masks)

    # --------------------------------------------- batched offline provisioning

    def _pool_uniform(self, shape: tuple[int, ...]) -> np.ndarray:
        """One vectorised mask draw for a whole refill stack (Section 5.1)."""
        if len(shape) >= 2:
            return parallel_uniform_ring(shape, self._mask_pool)
        return self._dealer_rng.integers(0, 2**64, size=shape, dtype=np.uint64)

    def _client_matmul_batched(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Fused ``Z = U x V`` over a (B,m,k) x (B,k,n) refill stack.

        One strided-batched launch on the client GPU (one PCIe round
        trip for the whole stack) when profitable; otherwise B
        sequential products on the client CPU.
        """
        count, m, k = u.shape
        n = v.shape[2]
        decision = self.profiler.place_gemm_batched(count, m, k, n)
        if decision.placement == "gpu" and self.client_gpu is not None:
            gpu = self.client_gpu
            u_buf, t_u = gpu.h2d(u, label="pool:h2d:U")
            v_buf, t_v = gpu.h2d(v, label="pool:h2d:V")
            z_buf, t_z = gpu.gemm_ring_batched(u_buf, v_buf, deps=(t_u, t_v), label="pool:U@V")
            z, _ = gpu.d2h(z_buf, deps=(t_z,), label="pool:d2h:Z")
            for b in (u_buf, v_buf, z_buf):
                gpu.free(b)
            return z
        z, _ = self.client_cpu.gemm_ring_batched(u, v, label="pool:U@V")
        return z

    def _gen_matrix_triplet_batch(self, shape_a, shape_b, count: int) -> list[MatrixTriplet]:
        """Fused offline generation of ``count`` same-shaped matrix triplets.

        The whole refill is one vectorised mask draw, one batched ring
        GEMM, one share split and one upload message per server — the
        per-triplet fixed costs (curand warm-up, kernel launches, PCIe
        and channel latency) are paid once per batch instead of once
        per triplet.
        """
        *stack, m, k = shape_a
        n = shape_b[-1]
        depth = count * math.prod(stack)  # stacked triplets refill as one deeper stack
        with self.telemetry.span("pool.refill", clock="offline", kind="matrix", count=count):
            # Per-phase sub-spans: how a refill's offline time splits
            # between mask drawing, the dealer GEMM, share splitting and
            # the upload (see EXPERIMENTS.md, offline-makespan analysis).
            with self.telemetry.span("pool.refill.rng", clock="offline", kind="matrix"):
                u = self._pool_uniform((depth, m, k))
                v = self._pool_uniform((depth, k, n))
                self._charge_client_rng(u.nbytes + v.nbytes, "pool:rng")
            with self.telemetry.span("pool.refill.gemm", clock="offline", kind="matrix"):
                z = self._client_matmul_batched(u, v)
            with self.telemetry.span("pool.refill.share", clock="offline", kind="matrix"):
                u_pair = self._share_with_timing(u, "pool:U")
                v_pair = self._share_with_timing(v, "pool:V")
                z_pair = self._share_with_timing(z, "pool:Z")
            with self.telemetry.span("pool.refill.upload", clock="offline", kind="matrix"):
                self._upload(
                    u.nbytes + v.nbytes + z.nbytes, "pool:upload",
                    contents=tuple(
                        (getattr(u_pair, f"share{i}"), getattr(v_pair, f"share{i}"),
                         getattr(z_pair, f"share{i}"))
                        for i in (0, 1)
                    ),
                )
        self._triplets_generated.inc(
            count, kind="matrix", shape=f"{tuple(shape_a)}x{tuple(shape_b)}", source="pool"
        )

        def split(pair, shape) -> list[SharePair]:
            """Each triplet's slice of the two servers' refill stacks."""
            s0, s1 = (s.reshape(count, *shape) for s in (pair.share0, pair.share1))
            return [SharePair(s0[i], s1[i]) for i in range(count)]

        return [
            MatrixTriplet(u=u_i, v=v_i, z=z_i, shape_a=tuple(shape_a), shape_b=tuple(shape_b))
            for u_i, v_i, z_i in zip(
                split(u_pair, shape_a), split(v_pair, shape_b), split(z_pair, (*stack, m, n))
            )
        ]

    def _gen_elementwise_triplet_batch(self, shape, count: int) -> list[ElementwiseTriplet]:
        """Fused generation of ``count`` same-shaped elementwise triplets."""
        stack = (count, *tuple(shape))
        with self.telemetry.span("pool.refill", clock="offline", kind="elementwise", count=count):
            with self.telemetry.span("pool.refill.rng", clock="offline", kind="elementwise"):
                u = self._pool_uniform(stack)
                v = self._pool_uniform(stack)
                self._charge_client_rng(u.nbytes + v.nbytes, "pool:rng")
            with self.telemetry.span("pool.refill.gemm", clock="offline", kind="elementwise"):
                z = ring_mul(u, v)
                self._charge_client_elementwise(3 * u.nbytes, "pool:mul")
            with self.telemetry.span("pool.refill.share", clock="offline", kind="elementwise"):
                u_pair = self._share_with_timing(u, "pool:U")
                v_pair = self._share_with_timing(v, "pool:V")
                z_pair = self._share_with_timing(z, "pool:Z")
            with self.telemetry.span("pool.refill.upload", clock="offline", kind="elementwise"):
                self._upload(
                    3 * u.nbytes, "pool:upload",
                    contents=tuple(
                        (getattr(u_pair, f"share{i}"), getattr(v_pair, f"share{i}"),
                         getattr(z_pair, f"share{i}"))
                        for i in (0, 1)
                    ),
                )
        self._triplets_generated.inc(
            count, kind="elementwise", shape=str(tuple(shape)), source="pool"
        )
        return [
            ElementwiseTriplet(
                u=SharePair(u_pair.share0[i], u_pair.share1[i]),
                v=SharePair(v_pair.share0[i], v_pair.share1[i]),
                z=SharePair(z_pair.share0[i], z_pair.share1[i]),
                shape=tuple(shape),
            )
            for i in range(count)
        ]

    def provision_offline(self, requests: list[TripletRequest]) -> int:
        """Bank triplets for ``requests`` in the pool (no-op without one)."""
        if self.triplet_pool is None or self.config.fresh_triplets or not requests:
            return 0
        return self.triplet_pool.provision(requests)

    def provision_demand(self, demand) -> int:
        """Bank triplets for aggregated ``{(kind, shapes): count}`` demand.

        The multi-consumer provisioning path (fleet dealer service):
        same guards as :meth:`provision_offline`, but takes demand
        already merged across consumers.
        """
        if self.triplet_pool is None or self.config.fresh_triplets or not demand:
            return 0
        return self.triplet_pool.provision_demand(demand)

    def provision_for(self, model, batch_size: int, *, training: bool = True) -> int:
        """Provision the pool from a model's declared ``offline_plan``.

        Called by the drivers after dataset sharing, on the offline
        clock — refills therefore overlap the subsequent online steps by
        the two-clock construction.  Returns triplets banked (0 when the
        pool is off, fresh_triplets is on, or the model has no plan).
        """
        if self.triplet_pool is None or self.config.fresh_triplets:
            return 0
        plan = getattr(model, "offline_plan", None)
        if plan is None:
            return 0
        return self.provision_offline(plan(batch_size, training=training))

    def begin_batch(self) -> None:
        """Advance the online step: the per-batch consumption guard, and
        the end of everything the last step opened but a static value."""
        self._batch_epoch = 0 if self._batch_epoch is None else self._batch_epoch + 1
        if self._opened:
            self._opened = {m: row for m, row in self._opened.items() if row.static}
            for row in self._opened.values():
                row.tasks = ()  # long done; a hit waits on its operands alone
        self._free_device(
            (what, uid) for what, uid in self._device_rows()
            if what == "share" or (what != "Z" and uid not in self._opened)
        )

    # ----------------------------------------------------------- the mask table
    #
    # A Beaver mask belongs to a value, not to an op stream.  The table
    # maps a mask's uid to the value (tensor uid) it opened, the opened
    # difference in the value's base layout and the tasks after which
    # each server holds it.  One lifetime rule: a row lives while its
    # value can still be asked for — to the end of the online step (a
    # step ends where the next begins, ``begin_batch``: there is no
    # other boundary), or, for a ``static`` tensor under persistent
    # masks, until the mask opens a new uid or its stream side is dealt
    # a new mask (PR 20's unchanged-weight ``F``).  The opened
    # matrix itself is kept only where somebody can ask: a static value,
    # or a mask more than one stream side is dealt on; every other row
    # is the bare (mask, value, step) fact the dealer and the invariant
    # "a mask never opens two values in one step" need.  Outside
    # ``begin_batch`` steps there is no step boundary: only static rows
    # exist and no stream shares a mask.

    @property
    def _links_masks(self) -> bool:
        """Whether streams share masks here: inside ``begin_batch`` steps,
        and not where a pool banked every stream's own draws beforehand."""
        return self._batch_epoch is not None and (
            self.triplet_pool is None or self.config.fresh_triplets
        )

    def _mask_opened_this_step(self, operand) -> BeaverMask | None:
        """The mask that opened ``operand``'s value in this online step."""
        for row in self._opened.values():
            if row.uid == operand.uid and row.epoch == self._batch_epoch:
                return row.mask
        return None

    def reuse_masked(self, side: str, tensor, view: MaskView):
        """``(E or F, ready tasks)`` if the servers already hold ``tensor``'s
        difference under ``view``'s mask, else ``None``.

        A hit means this very value (tensor uid) was opened under this
        very mask and kept — the combined matrix is bit-identical, and
        the servers skip the subtract, the frame part and the combine.
        It also registers the value as opened this step, exactly like a
        live opening, so which streams get linked never depends on what
        happened to be cached.
        """
        row = self._opened.get(view.mask.uid)
        if row is None or row.uid != tensor.uid or row.opened is None:
            return None
        in_step = self._batch_epoch is not None and row.epoch == self._batch_epoch
        self._mask_reuse_hits.inc(1, side=side, scope="step" if in_step else "static")
        row.epoch = self._batch_epoch
        return from_base_layout(row.opened, tensor.shape, view.transposed), row.tasks

    def store_masked(self, tensor, view: MaskView, combined: np.ndarray, tasks) -> None:
        """Record that ``view``'s mask opened ``tensor`` (see the lifetime rule)."""
        outlives_step = tensor.static and not self.config.fresh_triplets
        if not (outlives_step or self._links_masks):
            return
        # the matrix itself is kept where somebody can ask for it: a
        # weight (its forward product and its dX), a mask streams share
        keep = tensor.static or view.mask.shared
        # whatever this mask opened before (an updated weight's old F) is
        # stale, on the host and on the GPUs
        dead = {view.mask.uid}
        if outlives_step:
            # a re-dealt stream side (ragged batch, pool retake) drew a
            # new mask; nobody can ask for what its old one opened
            owner = view.mask.owner
            dead.update(
                uid for uid, row in self._opened.items()
                if row.static and row.mask.owner == owner
            )
        for uid in dead:
            self._opened.pop(uid, None)
        self._free_device((what, uid) for uid in dead for what in ("open", "lead"))
        self._opened[view.mask.uid] = _Opening(
            mask=view.mask,
            uid=tensor.uid,
            epoch=self._batch_epoch,
            static=outlives_step,
            opened=to_base_layout(combined, view.transposed) if keep else None,
            tasks=tuple(tasks) if keep else (),
        )

    # --------------------------------------------------------- the device table
    #
    # A value is uploaded once: what the mask table is to the wire, the
    # device table is to PCIe.  One dict per server GPU, ``(what, uid) ->
    # (device buffer in the value's base layout, upload task)``, read and
    # filled by :func:`repro.pipeline.scheduler.schedule_secure_gemm`:
    #
    # * ``("open", mask uid)`` — the opened difference ``E`` / ``F`` — and
    #   ``("lead", mask uid)`` — ``D = A_i - i E`` computed from it — live
    #   and die with the mask's row in the mask table;
    # * ``("share", tensor uid)`` — the server's own share ``A_i`` /
    #   ``B_i`` — lives to the end of the step;
    # * ``("Z", triplet uid)`` — the stream's ``Z_i`` — lives while the
    #   stream keeps that triplet (never under ``fresh_triplets``).
    #
    # Retention is the mask table's who-can-ask rule (:meth:`device_keep`);
    # invalidation is one loop (:meth:`_free_device`), run where a row's
    # owner goes: ``begin_batch``, a mask opening a new value, a re-dealt
    # stream, :meth:`reset_mask_reuse`.

    def device_table(self, party: int) -> dict[tuple[str, int], tuple]:
        """Server ``party``'s device table (see "the device table")."""
        return self._device[party]

    def device_keep(self, triplet, x, y) -> dict[str, tuple[str, int]]:
        """Fig. 5 slot name -> device-table row, for every operand of the
        product ``x @ y`` under ``triplet`` that somebody can ask for again.

        ``Z`` can whenever masks persist.  An opened difference can where
        the mask table kept it for longer than this product: a ``static``
        value (next step asks) or a mask more than one stream side is
        dealt on (another product of this step asks); the server's own
        share only in the latter case.  Everything else — all of a
        forward-only or single-use product but a static ``F`` and ``Z`` —
        is freed when the product returns.
        """
        keep = {} if self.config.fresh_triplets else {"Z": ("Z", triplet.uid)}
        for (opened, share), tensor, view in zip(("EA", "FB"), (x, y), triplet.masks):
            row = self._opened.get(view.mask.uid)
            if row is None or row.uid != tensor.uid or row.opened is None:
                continue
            if row.static or view.mask.shared:
                keep[opened] = ("open", view.mask.uid)
            if view.mask.shared:
                keep[share] = ("share", tensor.uid)
        return keep

    def _device_rows(self) -> set[tuple[str, int]]:
        """Every key some server's device table holds."""
        return set().union(*self._device)

    def _free_device(self, dead) -> None:
        """Free the rows ``dead`` (keys nobody can ask for again) on every server."""
        dead = set(dead)
        for gpu, rows in zip(self.server_gpu, self._device):
            for key in dead & rows.keys():
                gpu.free(rows.pop(key)[0])

    def reset_mask_reuse(self) -> None:
        """Empty the mask table and the device tables.

        Called on recovery paths (server restart, inference retry): a
        restarted server has lost its memory, so nothing previously
        uploaded or exchanged can be assumed present — every opening is
        forgotten and every resident device buffer freed, leaving both
        servers' ``gpu.pool.allocated_bytes`` at 0.  Cached triplets
        and the links between streams are the dealer's and survive, so
        a replayed batch opens what a fault-free one opens.
        """
        self._opened.clear()
        self._free_device(self._device_rows())

    # ---------------------------------------------------- per-label triplet API

    @staticmethod
    def _own_masks(triplet, label: str, operands) -> None:
        """A triplet dealt elsewhere (the pool): ``U`` and ``V`` are its
        stream's own masks."""
        triplet.masks = tuple(
            MaskView.over(pair, (label, side), operand is not None and operand.transposed)
            for pair, side, operand in zip((triplet.u, triplet.v), "EF", operands)
        )

    def _masks_fit(self, triplet, operands) -> bool:
        """Whether a cached triplet's masks may open ``operands`` now.

        No, when an operand is laid out differently from the one the
        side was dealt for, and — the invariant — when a mask would open
        a second value in one online step: it already opened another
        this step, or both sides share it and the operands differ.  The
        stream is then re-dealt, on fresh masks where it must.
        """
        if triplet.masks is None or None in operands:
            return True
        left, right = triplet.masks
        if left.mask is right.mask and operands[0].uid != operands[1].uid:
            return False
        for view, operand in zip(triplet.masks, operands):
            if view.transposed != operand.transposed:
                return False
            row = self._opened.get(view.mask.uid)
            if (
                row is not None
                and row.uid != operand.uid
                and self._batch_epoch is not None
                and row.epoch == self._batch_epoch
            ):
                return False
        return True

    def _stream_triplet(self, cache: dict, label: str, operands, same_shape, take, deal):
        """Op stream ``label``'s triplet from ``cache``, dealt (or taken
        from the pool) when there is none that fits."""
        if self.config.fresh_triplets:
            # Single-use triplets bypass the pool: pooled material is
            # pre-drawn, which is exactly what fresh_triplets forbids.
            triplet = deal()
            triplet.begin_use(None, label)
            return triplet
        cached = cache.get(label)
        if cached is None or not same_shape(cached) or not self._masks_fit(cached, operands):
            if cached is not None:  # nobody can ask for the old triplet's Z
                self._free_device([("Z", cached.uid)])
            pooled = take(self.triplet_pool) if self.triplet_pool is not None else None
            # Pool exhaustion (or no pool): synchronous generation.
            cached = cache[label] = pooled if pooled is not None else deal()
        if cached.masks is None:
            self._own_masks(cached, label, operands)
        cached.begin_use(self._batch_epoch, label)
        return cached

    def get_matrix_triplet(
        self, label: str, shape_a, shape_b, operands=(None, None)
    ) -> MatrixTriplet:
        """The triplet for op stream ``label``; cached unless fresh_triplets.

        A cached triplet keeps the same (U, V, Z) for repeated executions
        of the op — the mask-stability the paper's delta compression
        depends on.  Shape changes (e.g. a ragged last batch) invalidate
        the cache entry, and so does a mask that may not open
        ``operands`` (:meth:`_masks_fit`); ``operands`` are the tensors
        about to be multiplied, which :meth:`_deal` reads for the values
        already opened this step.
        """
        self._require_dealer(label)
        shapes = (tuple(shape_a), tuple(shape_b))
        self._triplets_consumed.inc(1, kind="matrix", shape=f"{shapes[0]}x{shapes[1]}")
        return self._stream_triplet(
            self._matrix_triplets, label, operands,
            lambda cached: (cached.shape_a, cached.shape_b) == shapes,
            lambda pool: pool.take_matrix(*shapes),
            lambda: self.gen_matrix_triplet(*shapes, label=label, operands=operands),
        )

    def _require_dealer(self, label: str) -> None:
        if not self.backend.needs_dealer:
            raise ProtocolError(
                f"[{self.backend.name}] op stream '{label}' requested Beaver "
                "triplets, but this backend is dealer-free; its multiplication "
                "protocol must not consume dealer material"
            )

    def get_elementwise_triplet(
        self, label: str, shape, operands=(None, None)
    ) -> ElementwiseTriplet:
        """Elementwise-triplet analogue of :meth:`get_matrix_triplet`."""
        self._require_dealer(label)
        shape = tuple(shape)
        self._triplets_consumed.inc(1, kind="elementwise", shape=str(shape))
        return self._stream_triplet(
            self._elementwise_triplets, label, operands,
            lambda cached: cached.shape == shape,
            lambda pool: pool.take_elementwise(shape),
            lambda: self.gen_elementwise_triplet(shape, label=label, operands=operands),
        )

    def gen_comparison_bundle(self, shape, label: str | None = None) -> ComparisonBundle:
        """Offline material for one secure comparison
        (:func:`repro.core.ops.secure_compare_const`), with its dealer
        generation and upload charged on the offline clock.

        With a ``label`` (and ``fresh_triplets`` off) the bundle's
        randomness is derived from the op-stream label, so replaying a
        batch after checkpoint restore redraws bit-identical material —
        the comparison analogue of the per-label triplet cache.
        """
        # Dealer-side generation cost: dominated by the bit-triplet RNG.
        material_bytes = comparison_offline_bytes(int(np.prod(shape)))
        self._charge_client_rng(material_bytes, "compare:rng")
        # Only the two parties that run the 2-party comparison core
        # receive material (all of them under beaver2pc).
        self._upload(material_bytes, "compare:upload", parties=self.backend.compare_parties)
        self._comparisons.inc(1)
        if self.config.fresh_triplets:
            label = None
        return self.comparison_dealer.bundle(tuple(shape), label)
