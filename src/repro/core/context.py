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
from repro.fixedpoint.ring import ring_mul
from repro.mpc.comparison import ComparisonBundle, ComparisonDealer, comparison_offline_bytes
from repro.mpc.pool import TripletPool, TripletRequest
from repro.mpc.prandom import ThreadSafeGeneratorPool, parallel_uniform_ring
from repro.mpc.shares import SharePair
from repro.mpc.triplets import ElementwiseTriplet, MatrixTriplet
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

        # Static-operand reuse: opened masked differences of static
        # operands keyed by (op label, side), and what each op stream
        # keeps on a server GPU keyed by (party, op label).
        self._masked_cache: dict[tuple[str, str], tuple[int, int, np.ndarray]] = {}
        self._resident: dict[tuple[int, str], dict[str, tuple]] = {}
        self._mask_reuse_hits = self.telemetry.counter(
            "mpc.mask_reuse.hits", "masked-difference exchanges skipped via static reuse"
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
    ) -> None:
        """Log one message on the attached recorder (no-op when absent)."""
        if self.recorder is None:
            return
        clk = self.offline_clock if clock == "offline" else self.online_clock
        self.recorder.record(
            src, dst, tag, payload, nbytes=nbytes, clock_s=clk.now()
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

    def gen_matrix_triplet(self, shape_a, shape_b) -> MatrixTriplet:
        """Offline generation of one matrix Beaver triplet, fully costed."""
        self._require_dealer("gen_matrix_triplet")
        rng = self._dealer_rng
        u = rng.integers(0, 2**64, size=shape_a, dtype=np.uint64)
        v = rng.integers(0, 2**64, size=shape_b, dtype=np.uint64)
        self._charge_client_rng(u.nbytes + v.nbytes, "triplet:rng")
        z = self._client_matmul(u, v) if u.ndim == 2 else self._client_matmul_batched(u, v)
        triplet = MatrixTriplet(
            u=self._share_with_timing(u, "triplet:U"),
            v=self._share_with_timing(v, "triplet:V"),
            z=self._share_with_timing(z, "triplet:Z"),
            shape_a=tuple(shape_a),
            shape_b=tuple(shape_b),
        )
        self._upload(
            u.nbytes + v.nbytes + z.nbytes, "triplet:upload",
            contents=tuple(
                (getattr(triplet.u, f"share{i}"), getattr(triplet.v, f"share{i}"),
                 getattr(triplet.z, f"share{i}"))
                for i in (0, 1)
            ),
        )
        self._triplets_generated.inc(
            1, kind="matrix", shape=f"{tuple(shape_a)}x{tuple(shape_b)}"
        )
        return triplet

    def gen_elementwise_triplet(self, shape) -> ElementwiseTriplet:
        self._require_dealer("gen_elementwise_triplet")
        rng = self._dealer_rng
        u = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        v = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        self._charge_client_rng(u.nbytes + v.nbytes, "etriplet:rng")
        z = ring_mul(u, v)
        self._charge_client_elementwise(3 * u.nbytes, "etriplet:mul")
        triplet = ElementwiseTriplet(
            u=self._share_with_timing(u, "etriplet:U"),
            v=self._share_with_timing(v, "etriplet:V"),
            z=self._share_with_timing(z, "etriplet:Z"),
            shape=tuple(shape),
        )
        self._upload(
            3 * u.nbytes, "etriplet:upload",
            contents=tuple(
                (getattr(triplet.u, f"share{i}"), getattr(triplet.v, f"share{i}"),
                 getattr(triplet.z, f"share{i}"))
                for i in (0, 1)
            ),
        )
        self._triplets_generated.inc(1, kind="elementwise", shape=str(tuple(shape)))
        return triplet

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
        """Advance the online-step epoch (per-batch consumption guard)."""
        self._batch_epoch = 0 if self._batch_epoch is None else self._batch_epoch + 1

    # ----------------------------------------------------- static-operand reuse

    def reuse_masked(self, label: str, side: str, tensor, triplet) -> np.ndarray | None:
        """Cached combined masked difference for a static operand, or None.

        A hit means both the operand's values (tensor uid) and the mask
        (triplet uid) are unchanged since the difference was exchanged —
        the combined matrix is therefore bit-identical, and the servers
        skip the subtract, the transmission and the combine entirely.
        """
        entry = self._masked_cache.get((label, side))
        if entry is None or entry[:2] != (tensor.uid, triplet.uid):
            return None
        self._mask_reuse_hits.inc(1, side=side)
        return entry[2]

    def store_masked(self, label: str, side: str, tensor, triplet, combined: np.ndarray) -> None:
        """Remember an exchanged masked difference for a static operand.

        Needs stable masks, so nothing is kept under fresh_triplets.
        """
        if tensor.static and not self.config.fresh_triplets:
            self._masked_cache[(label, side)] = (tensor.uid, triplet.uid, combined)

    def resident_operands(self, party: int, label: str) -> dict[str, tuple]:
        """What op stream ``label`` keeps on server ``party``'s GPU.

        ``name -> (version, buffer, upload task)``, read and updated by
        :func:`repro.pipeline.scheduler.schedule_secure_gemm`.
        """
        return self._resident.setdefault((party, label), {})

    def reset_mask_reuse(self) -> None:
        """Drop the reuse cache and every resident device buffer.

        Called on recovery paths (server restart, inference retry): a
        restarted server has lost its GPU memory, so nothing previously
        uploaded or exchanged can be assumed present.
        """
        self._masked_cache.clear()
        for (party, _label), held in self._resident.items():
            for _version, buf, _task in held.values():
                self.server_gpu[party].free(buf)
        self._resident.clear()

    # ---------------------------------------------------- per-label triplet API

    def get_matrix_triplet(self, label: str, shape_a, shape_b) -> MatrixTriplet:
        """The triplet for op stream ``label``; cached unless fresh_triplets.

        A cached triplet keeps the same (U, V, Z) for repeated executions
        of the op — the mask-stability the paper's delta compression
        depends on.  Shape changes (e.g. a ragged last batch) invalidate
        the cache entry.
        """
        self._require_dealer(label)
        self._triplets_consumed.inc(
            1, kind="matrix", shape=f"{tuple(shape_a)}x{tuple(shape_b)}"
        )
        if self.config.fresh_triplets:
            # Single-use triplets bypass the pool: pooled material is
            # pre-drawn, which is exactly what fresh_triplets forbids.
            triplet = self.gen_matrix_triplet(shape_a, shape_b)
            triplet.begin_use(None, label)
            return triplet
        cached = self._matrix_triplets.get(label)
        if (
            cached is None
            or cached.shape_a != tuple(shape_a)
            or cached.shape_b != tuple(shape_b)
        ):
            pooled = (
                self.triplet_pool.take_matrix(tuple(shape_a), tuple(shape_b))
                if self.triplet_pool is not None
                else None
            )
            # Pool exhaustion (or no pool): synchronous generation.
            cached = pooled if pooled is not None else self.gen_matrix_triplet(shape_a, shape_b)
            self._matrix_triplets[label] = cached
        cached.begin_use(self._batch_epoch, label)
        return cached

    def _require_dealer(self, label: str) -> None:
        if not self.backend.needs_dealer:
            raise ProtocolError(
                f"[{self.backend.name}] op stream '{label}' requested Beaver "
                "triplets, but this backend is dealer-free; its multiplication "
                "protocol must not consume dealer material"
            )

    def get_elementwise_triplet(self, label: str, shape) -> ElementwiseTriplet:
        """Elementwise-triplet analogue of :meth:`get_matrix_triplet`."""
        self._require_dealer(label)
        self._triplets_consumed.inc(1, kind="elementwise", shape=str(tuple(shape)))
        if self.config.fresh_triplets:
            triplet = self.gen_elementwise_triplet(shape)
            triplet.begin_use(None, label)
            return triplet
        cached = self._elementwise_triplets.get(label)
        if cached is None or cached.shape != tuple(shape):
            pooled = (
                self.triplet_pool.take_elementwise(tuple(shape))
                if self.triplet_pool is not None
                else None
            )
            cached = pooled if pooled is not None else self.gen_elementwise_triplet(shape)
            self._elementwise_triplets[label] = cached
        cached.begin_use(self._batch_epoch, label)
        return cached

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
