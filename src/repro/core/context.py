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

The context is also the dealer: a Beaver mask belongs to a value (a
tensor uid), not to an op stream, and :meth:`SecureContext._deal` deals
a stream whose operand was already opened this online step on the mask
that opened it.  What each party holds is **one table per party**
(:attr:`SecureContext.rows`, :mod:`repro.core.rows`): what each mask
opened, and on the server GPUs the openings, a value's shares and each
stream's ``Z``, every row ``static``, ``step`` or ``op``.  Through it a
value is opened once — within a step for any tensor, across steps for
an unchanged ``static`` one (:meth:`SecureContext.reuse_masked` /
:meth:`SecureContext.store_masked`) — and uploaded once
(:meth:`SecureContext.lifetime`, one rule for both backends; DESIGN §5b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.comm.channel import Channel
from repro.comm.compression import CompressionStats, DeltaCompressor
from repro.core.config import FrameworkConfig
from repro.core.rows import LIFETIMES, RowTable
from repro.faults.injector import FaultInjector
from repro.faults.reliable import ResilientChannel
from repro.fixedpoint.encoding import FixedPointEncoder
from repro.fixedpoint.ring import ring_add, ring_matmul, ring_mul
from repro.mpc.comparison import ComparisonBundle, ComparisonDealer, comparison_offline_bytes
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
from repro.telemetry.registry import BoundCounter, Counter, SeriesCache
from repro.util.errors import ProtocolError, ShapeError
from repro.util.seeding import SeedSequenceFactory
from repro.util.validation import gemm_dims, matmul_shapes_compatible


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


class _TripletSeries(NamedTuple):
    """``mpc.triplets_generated`` / ``_consumed`` of one kind and shape."""

    generated: BoundCounter
    consumed: BoundCounter


class _OpSeries(NamedTuple):
    """One secure op's ``ops.*`` and ``protocol.*`` roll-up series."""

    calls: BoundCounter
    online_seconds: BoundCounter
    backend_calls: BoundCounter
    backend_online_seconds: BoundCounter


def _bind_triplet_series(generated: Counter, consumed: Counter, kind_shapes) -> _TripletSeries:
    kind, shapes = kind_shapes
    shape = f"{shapes[0]}x{shapes[1]}" if kind == "matrix" else str(shapes)
    return _TripletSeries(
        generated=generated.labels(kind=kind, shape=shape),
        consumed=consumed.labels(kind=kind, shape=shape),
    )


def _bind_op_series(telemetry: Telemetry, backend: str, op: str) -> _OpSeries:
    return _OpSeries(
        calls=telemetry.counter("ops.invocations", "secure-op call counts").labels(op=op),
        online_seconds=telemetry.counter(
            "ops.online_seconds", "online makespan attributed per op"
        ).labels(op=op),
        backend_calls=telemetry.counter(
            "protocol.invocations", "secure-op call counts per protocol backend"
        ).labels(backend=backend, op=op),
        backend_online_seconds=telemetry.counter(
            "protocol.online_seconds", "online makespan per protocol backend"
        ).labels(backend=backend, op=op),
    )


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
        self.offline_clock = SimClock()
        self.offline_clock.set_tracing(cfg.trace)
        self.telemetry.register_clock("offline", self.offline_clock)
        # The client runs at its own spec: the Section 5.1 parallel MT19937
        # design in both presets (shared infrastructure); Fig. 14 makes it
        # serial too (see FrameworkConfig docs).  Under "cpu_always" no
        # party has a GPU.
        gpus = cfg.placement_mode != "cpu_always"
        self.client_cpu = SimCPU(
            self.offline_clock, cfg.client_cpu_spec, "client", telemetry=self.telemetry
        )
        self.client_gpu = SimGPU(
            self.offline_clock, cfg.gpu_spec, "clientgpu", n_streams=1, telemetry=self.telemetry
        ) if gpus else None
        self.uplinks = [
            Channel(
                self.offline_clock, cfg.uplink, "client", f"server{i}", telemetry=self.telemetry
            )
            for i in range(self.n_parties)
        ]

        # --- online side (servers) --------------------------------------------
        self.online_clock = SimClock()
        self.online_clock.set_tracing(cfg.trace)
        self.telemetry.register_clock("online", self.online_clock)
        def server_cpus(suffix: str) -> list[SimCPU]:
            return [
                SimCPU(self.online_clock, cfg.cpu_spec, f"s{i}{suffix}", telemetry=self.telemetry)
                for i in range(self.n_parties)
            ]

        self.server_cpu = server_cpus("")
        # Pipeline 2 (Fig. 6): with the double pipeline on, each server
        # runs its reconstruct steps in a dedicated thread, so they can
        # overlap GPU operations of neighbouring layers.  Without it the
        # reconstruct work shares the single in-order CPU timeline.
        self.server_reconstruct_cpu = server_cpus("rec") if cfg.double_pipeline else self.server_cpu
        self.server_gpu = [
            SimGPU(self.online_clock, cfg.gpu_spec, f"s{i}gpu", telemetry=self.telemetry)
            if gpus else None
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
                ends = (self.online_clock, cfg.server_link, f"server{i}", f"server{j}")
                if (i, j) == (0, 1) and self.fault_injector is not None:
                    link = ResilientChannel(
                        *ends, telemetry=self.telemetry,
                        injector=self.fault_injector, policy=cfg.retry_policy,
                    )
                else:
                    link = Channel(*ends, telemetry=self.telemetry)
                self.server_links[(i, j)] = link
        self.server_channel = self.server_links[(0, 1)]
        self.compressors = {
            (src, dst): DeltaCompressor(
                enabled=cfg.compression, telemetry=self.telemetry, direction=f"s{src}->s{dst}"
            )
            for src, dst in ((0, 1), (1, 0))
        }

        # --- placement & offline material --------------------------------------
        self.profiler = StepProfiler(
            cfg.cpu_spec,
            cfg.gpu_spec,
            client_cpu_spec=cfg.client_cpu_spec,
            mode=cfg.placement_mode,
            pipeline1=cfg.pipeline1,
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
        # streams dealt ahead of their use this step (deal_ahead): label
        # -> (triplet, the uids of the operands it was dealt for)
        self._ahead: dict[str, tuple[MatrixTriplet, tuple[int, int]]] = {}

        # Online-step epoch for the per-batch consumption guard: drivers
        # call begin_batch() before each step; cached triplets then issue
        # one TripletShare per (epoch, party), so a second consume of the
        # same op stream within a step raises a labelled ProtocolError.
        self._batch_epoch: int | None = None

        # One mask per value, one upload per value: what every party
        # holds, and until when (see "the row table" below), and the
        # (label, side) whose masks other streams are dealt on.
        self.rows = RowTable(self.server_gpu)
        self._shared_sides: set[tuple[str, str]] = set()
        mask_reuse_hits = self.telemetry.counter(
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
        ).labels()

        # Series the hot paths write, each bound on first use: one
        # triplet kind and shape, one mask-reuse (side, scope), and one
        # secure op's roll-ups (read by core.ops._op_scope).  The binders
        # hold counters, never the context, so a dropped context is
        # freed by reference counting, not left to the cycle collector.
        self._triplet_series = SeriesCache(
            partial(_bind_triplet_series, self._triplets_generated, self._triplets_consumed)
        )
        self._mask_reuse_series = SeriesCache(
            lambda side_scope: mask_reuse_hits.labels(side=side_scope[0], scope=side_scope[1])
        )
        self.op_series = SeriesCache(partial(_bind_op_series, self.telemetry, self.backend.name))

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

    def _client_plan(self, plan: str, nbytes: int, label: str) -> None:
        """Charge the client's ``plan`` over ``nbytes`` on the offline
        clock — an ``rng`` draw on its GPU where the profiler says so
        (the Fig. 7 trade-off)."""
        self.profiler.run_plan(
            self.client_cpu, self.client_gpu, plan, (nbytes,), deps=(), label=label
        )

    def attach_recorder(self, recorder=None, *, capture_payloads: bool = True):
        """Attach (or create) a transcript recorder for this deployment.

        From here on every wire charge is logged (see
        :mod:`repro.audit`).  Returns the recorder so callers can pull
        the transcript at the end.
        """
        if recorder is None:
            from repro.audit.transcript import TranscriptRecorder

            recorder = TranscriptRecorder(
                capture_payloads=capture_payloads, telemetry=self.telemetry
            )
        self.recorder = recorder
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
        """Z = U x V on the client (two matrices or two equal-depth
        stacks), charged as the ``dealer`` plan: on the client GPU when
        the profiler finds it cheaper.

        The paper's offline acceleration: this one product is >90% of
        the offline compute, so it goes to the client GPU; everything
        else stays on the CPU (Section 4.2).
        """
        self.profiler.run_plan(
            self.client_cpu, self.client_gpu, "dealer", gemm_dims(u.shape, v.shape),
            deps=(), label="offline",
        )
        return ring_matmul(u, v)

    def _share_with_timing(self, secret: np.ndarray, label: str):
        """Backend share split plus the client-side cost it implies.

        Returns the backend's share container (a :class:`SharePair` for
        2-party backends, a plain tuple otherwise) — always indexable by
        party.  Costs scale with the share count: n-1 mask draws and n
        subtract/copy passes.
        """
        n = self.n_parties
        self._client_plan("rng", (n - 1) * secret.nbytes, f"{label}:rng")
        self._client_plan("pass", n * secret.nbytes, f"{label}:split")
        return self.backend.share_secret(secret, self.rng)

    def share_plain(self, plain: np.ndarray, label: str = "input"):
        """Encode and secret-share client data; charges encrypt + upload.

        The float->ring encoding is the dominant cost of the client's
        "generate the encrypted data" step (paper Fig. 2) and is common
        to both evaluated systems.
        """
        encoded = self.encoder.encode(plain)
        self._client_plan("encode", encoded.nbytes, f"{label}:encode")
        return self.share_ring(encoded, label)

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
        ``None`` (standalone use) and a context outside ``begin_batch``
        steps deal every side its own mask.

        Returns the ``U``, ``V``, ``Z`` share pairs and the two
        :class:`~repro.mpc.triplets.MaskView`.
        """
        linking = self._batch_epoch is not None and None not in operands
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
            self._client_plan("rng", sum(plain[i].nbytes for i in new), f"{tag}:rng")
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
        if not matmul_shapes_compatible(shape_a, shape_b):
            raise ShapeError(
                f"triplet operand shapes incompatible for matmul: {shape_a} x {shape_b}"
            )
        self._require_dealer("gen_matrix_triplet")
        shapes = (tuple(shape_a), tuple(shape_b))
        u, v, z, masks = self._deal("triplet", label, shapes, operands, self._client_matmul)
        self._triplet_series["matrix", shapes].generated.inc(1)
        return MatrixTriplet(u=u, v=v, z=z, shape_a=shapes[0], shape_b=shapes[1], masks=masks)

    def gen_elementwise_triplet(
        self, shape, *, label: str = "", operands=(None, None)
    ) -> ElementwiseTriplet:
        self._require_dealer("gen_elementwise_triplet")
        shape = tuple(shape)

        def product(u, v):
            self._client_plan("pass", 3 * u.nbytes, "etriplet:mul")
            return ring_mul(u, v)

        u, v, z, masks = self._deal("etriplet", label, (shape, shape), operands, product)
        self._triplet_series["elementwise", shape].generated.inc(1)
        return ElementwiseTriplet(u=u, v=v, z=z, shape=shape, masks=masks)

    def begin_batch(self) -> None:
        """Advance the online step (the per-batch consumption guard),
        ending the last one if its driver left it open."""
        self.end_batch()
        self._batch_epoch = 0 if self._batch_epoch is None else self._batch_epoch + 1

    def end_batch(self) -> None:
        """End the online step: what it held for the step only goes (its
        ``step`` rows), and so do the streams dealt ahead of their use."""
        self._ahead.clear()
        self.rows.end("step")

    # ------------------------------------------------------------ the row table
    #
    # One mask per value, one upload per value: every party's rows — what
    # each mask opened (``mask``, on the host), and on the server GPU the
    # opened difference (``open``) and ``D`` (``lead``), a value's shares
    # (``share``, ``next``, ``sum``) and a stream's ``Z`` — are one table
    # per party (:mod:`repro.core.rows`), each row ``static``, ``step`` or
    # ``op``.  :meth:`lifetime` picks a product's lifetimes from what each
    # operand is in this step; :meth:`store_masked` fills the openings;
    # each backend fills its device rows around its plan; the step's end
    # (:meth:`end_batch`, :meth:`begin_batch`), a collected value
    # (:meth:`_static_gone`), a re-dealt stream (:meth:`_stream_triplet`)
    # and a restart (:meth:`reset_mask_reuse`) free them.  The opened
    # matrix is kept only where somebody can ask for it: a static value,
    # or a mask more than one stream side is dealt on; every other
    # opening is the bare (mask, value, step) fact the dealer and the
    # invariant "a mask never opens two values in one step" need.
    # Outside ``begin_batch`` steps only static rows are kept and no
    # stream shares a mask.

    def _opened_this_step(self, row) -> bool:
        """Whether ``mask`` row ``row`` was opened or served in this step."""
        return self._batch_epoch is not None and row.epoch == self._batch_epoch

    def _mask_opened_this_step(self, operand) -> BeaverMask | None:
        """The mask that opened ``operand``'s value in this online step,
        or was dealt to it by a stream dealt ahead of its use
        (:meth:`deal_ahead`), which opens it under that mask this step."""
        for row in self.rows.table(0).values():
            if row.mask is not None and row.value == operand.uid and self._opened_this_step(row):
                return row.mask
        for triplet, uids in self._ahead.values():
            for view, uid in zip(triplet.masks, uids):
                if uid == operand.uid:
                    return view.mask
        return None

    def _opening(self, tensor, view: MaskView):
        """The ``mask`` row in which ``view``'s mask keeps ``tensor``'s
        opened difference, or ``None``."""
        row = self.rows.get(0, ("mask", view.mask.uid))
        return row if row and row.value == tensor.uid and row.held is not None else None

    def reuse_masked(self, side: str, tensor, view: MaskView):
        """``(E or F, ready tasks)`` if the servers already hold ``tensor``'s
        difference under ``view``'s mask (this very value, opened under
        this very mask and kept: bit-identical), else ``None``.  A hit
        registers the value as opened this step, exactly like a live
        opening, so which streams get linked never depends on what
        happened to be cached."""
        row = self._opening(tensor, view)
        if row is None:
            return None
        self._mask_reuse_series[side, "step" if self._opened_this_step(row) else "static"].inc(1)
        row.epoch = self._batch_epoch
        return from_base_layout(row.held, tensor.shape, view.transposed), row.task

    def store_masked(self, tensor, view: MaskView, combined: np.ndarray, tasks) -> None:
        """Record that ``view``'s mask opened ``tensor``: a ``static`` row
        for a static value under persistent masks, else a ``step`` row."""
        outlives_step = tensor.static and not self.config.fresh_triplets
        if not outlives_step and self._batch_epoch is None:
            return
        mask = view.mask
        # what this mask opened before (an updated weight's old F) is stale
        self.rows.drop(mask.uid)
        if outlives_step:  # a re-dealt stream side's old mask opens nothing more
            self.rows.own(mask.owner, mask.uid)
        keep = tensor.static or mask.shared
        self.rows.fill(
            None, ("mask", mask.uid),
            to_base_layout(combined, view.transposed) if keep else None,
            tuple(tasks) if keep else (), "static" if outlives_step else "step",
            mask=mask, value=tensor.uid, epoch=self._batch_epoch,
        )

    def lifetime(self, label: str, x, y, triplet=None) -> dict[str, str]:
        """Stream side -> lifetime of the rows the product ``label``
        (``x @ y``) reads, one rule for both backends, from what each value
        is in this step.  ``L``/``R``, the operands' share rows: ``static``
        for a static value; ``step`` where another stream side asks again
        this step (a mask several sides are dealt on; with no dealer, a side
        one of several that read the value, learned like the dealer's
        links); else ``op``.  Under a dealer, ``E``/``F`` (and ``D``) as
        the ``mask`` row of what ``triplet``'s masks opened where it keeps
        the matrix beyond this product, and ``Z`` (not under
        ``fresh_triplets``)."""
        views = (None, None) if triplet is None else triplet.masks
        out = {}
        for side, tensor, view in zip("LR", (x, y), views):
            owner = (label, side)
            self.rows.own(owner, tensor.uid if tensor.static else None)
            if tensor.static or self._batch_epoch is None:
                out[side] = "static" if tensor.static else "op"
                continue
            if view is None:  # no dealer: learn, like its links, which sides read a value twice
                read = self.rows.get(0, ("read", tensor.uid))
                readers = (read or self.rows.fill(None, ("read", tensor.uid), set(), (), "step")).held
                readers.add(owner)
                if len(readers) > 1:
                    self._shared_sides.update(readers)
            shared = view.mask.shared if view is not None else owner in self._shared_sides
            out[side] = "step" if shared else "op"
        if x.uid == y.uid:  # one value: held as long as either side asks
            out["L"] = out["R"] = min(out["L"], out["R"], key=LIFETIMES.index)
        if triplet is None:
            return out
        out["Z"] = "op" if self.config.fresh_triplets else "static"
        for side, tensor, view in zip("EF", (x, y), views):
            row = self._opening(tensor, view)
            kept = row is not None and (row.lifetime == "static" or view.mask.shared)
            out[side] = row.lifetime if kept else "op"
        return out

    def _static_gone(self, uid: int) -> None:
        """Nobody can ask for static value ``uid`` again (its tensor was
        collected, :meth:`SharedTensor.mark_static`): its rows go, and
        so do the rows of every mask that opened it — but one that opened
        it this step keeps the bare fact to the step's end, which the
        one-value-per-mask-per-step invariant needs."""
        self.rows.drop(uid)
        for row in [row for row in self.rows.table(0).values() if row.value == uid]:
            self.rows.drop(row.mask.uid)
            if self._opened_this_step(row):
                self.rows.fill(
                    None, ("mask", row.mask.uid), None, (), "step",
                    mask=row.mask, value=uid, epoch=row.epoch,
                )

    def reset_mask_reuse(self) -> None:
        """Empty every party's table (recovery paths: server restart,
        inference retry): a restarted server has lost its memory, so every
        opening is forgotten and every device buffer freed — every pool
        reads 0.  Cached triplets and the links between streams are the
        dealer's and survive, so a replayed batch opens what a fault-free
        one opens."""
        self.rows.clear()

    # ---------------------------------------------------- per-label triplet API

    def _masks_fit(self, triplet, operands) -> bool:
        """Whether a cached triplet's masks may open ``operands`` now.

        No, when an operand is laid out differently from the one the
        side was dealt for, and — the invariant — when a mask would open
        a second value in one online step: it already opened another
        this step, or both sides share it and the operands differ.  The
        stream is then re-dealt, on fresh masks where it must.
        """
        if None in operands:
            return True
        left, right = triplet.masks
        if left.mask is right.mask and operands[0].uid != operands[1].uid:
            return False
        for view, operand in zip(triplet.masks, operands):
            if view.transposed != operand.transposed:
                return False
            row = self.rows.get(0, ("mask", view.mask.uid))
            if row is not None and row.value != operand.uid and self._opened_this_step(row):
                return False
        return True

    def _stream_triplet(self, cache: dict, label: str, operands, same_shape, deal, *, use=True):
        """Op stream ``label``'s triplet: the one dealt ahead for it, else
        from ``cache``, dealt when there is none that fits; ``use`` off
        only deals it."""
        ahead = self._ahead.pop(label, None)
        if ahead is not None:
            triplet = ahead[0]
        elif self.config.fresh_triplets:
            triplet = deal()
        else:
            triplet = cache.get(label)
            if triplet is None or not same_shape(triplet) or not self._masks_fit(triplet, operands):
                if triplet is not None:  # nobody can ask for the old triplet's Z
                    self.rows.drop(triplet.uid)
                triplet = cache[label] = deal()
        if use:
            triplet.begin_use(None if self.config.fresh_triplets else self._batch_epoch, label)
        return triplet

    def deal_ahead(self, label: str, x, y) -> None:
        """Deal op stream ``label``'s triplet for ``x @ y`` now, for a
        product issued after others that open its operands.

        The stream is dealt (or its cached triplet checked) before the
        streams of those products, and a mask it deals to a value links
        them as if the value were opened under it
        (:meth:`_mask_opened_this_step`).  The stream's next fetch takes
        this triplet.  A dealer-free backend deals nothing.
        """
        if self.backend.needs_dealer:
            triplet = self.get_matrix_triplet(label, x.shape, y.shape, (x, y), use=False)
            self._ahead[label] = (triplet, (x.uid, y.uid))

    def get_matrix_triplet(
        self, label: str, shape_a, shape_b, operands=(None, None), *, use: bool = True
    ) -> MatrixTriplet:
        """The triplet for op stream ``label``; cached unless fresh_triplets.

        A cached triplet keeps the same (U, V, Z) for repeated executions
        of the op — the mask-stability the paper's delta compression
        depends on.  Shape changes (e.g. a ragged last batch) invalidate
        the cache entry, and so does a mask that may not open
        ``operands`` (:meth:`_masks_fit`); ``operands`` are the tensors
        about to be multiplied, which :meth:`_deal` reads for the values
        already opened this step.  ``use`` off only deals it.
        """
        self._require_dealer(label)
        shapes = (tuple(shape_a), tuple(shape_b))
        if use:
            self._triplet_series["matrix", shapes].consumed.inc(1)
        return self._stream_triplet(
            self._matrix_triplets, label, operands,
            lambda cached: (cached.shape_a, cached.shape_b) == shapes,
            lambda: self.gen_matrix_triplet(*shapes, label=label, operands=operands),
            use=use,
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
        self._triplet_series["elementwise", shape].consumed.inc(1)
        return self._stream_triplet(
            self._elementwise_triplets, label, operands,
            lambda cached: cached.shape == shape,
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
        self._client_plan("rng", material_bytes, "compare:rng")
        # Only the two parties that run the 2-party comparison core
        # receive material (all of them under beaver2pc).
        self._upload(material_bytes, "compare:upload", parties=self.backend.compare_parties)
        self._comparisons.inc(1)
        if self.config.fresh_triplets:
            label = None
        return self.comparison_dealer.bundle(tuple(shape), label)
