"""Plaintext and in-process references the tests hold the system to.

Nothing under ``src/`` calls these; each is the independent answer a
test compares the running code against:

* :func:`secure_matmul_plain` — the whole two-server Beaver matmul
  (paper Eqs. 4-8) run in-process from the client's share pairs, with
  its steps :func:`masked_difference`, :func:`combine_masked` and
  :func:`beaver_matmul_share`;
* :func:`emulated_ge_const` — the indicator ``[x >= c]`` computed in the
  clear, the reference for :func:`repro.mpc.comparison.secure_ge_const`;
* :class:`SMOSVM` — a linear sequential-minimal-optimization SVM, the
  accuracy reference for the secure hinge-subgradient SVM;
* :class:`ReplicaRecorder` — logs every call a serving fleet makes on
  each replica and replays it on a fresh standalone replica, which must
  match the fleet's bit for bit (:func:`replay_replica`).
"""

from __future__ import annotations

import copy
import functools
from typing import Callable

import numpy as np

from repro.core.context import SecureContext
from repro.fixedpoint.ring import RING_DTYPE, ring_add, ring_matmul, ring_sub
from repro.mpc.comparison import _ROUNDS, ComparisonResult, comparison_online_bytes
from repro.mpc.shares import share_secret
from repro.mpc.triplets import TripletShare
from repro.serve.replica import Replica
from repro.util.errors import ConfigError, ProtocolError, ReproError, ShapeError

# ------------------------------------------------------- the Beaver matmul


def masked_difference(share: np.ndarray, mask_share: np.ndarray) -> np.ndarray:
    """Eq. 4: ``E_i = A_i - U_i`` (likewise for F). Local, cheap."""
    if share.shape != mask_share.shape:
        raise ShapeError(
            f"share/mask shape mismatch: {share.shape} vs {mask_share.shape}"
        )
    return ring_sub(share, mask_share)


def combine_masked(local: np.ndarray, remote: np.ndarray) -> np.ndarray:
    """Eq. 5: ``E = E_0 + E_1`` after the exchange round."""
    if local.shape != remote.shape:
        raise ShapeError(f"combine shape mismatch: {local.shape} vs {remote.shape}")
    return ring_add(local, remote)


def beaver_matmul_share(
    party_id: int,
    e: np.ndarray,
    f: np.ndarray,
    a_share: np.ndarray,
    b_share: np.ndarray,
    triplet: TripletShare,
    *,
    matmul: Callable[[np.ndarray, np.ndarray], np.ndarray] = ring_matmul,
    use_fused_form: bool = True,
) -> np.ndarray:
    """Compute ``C_i`` for a matrix product (Eq. 6 / Eq. 8).

    ``use_fused_form`` selects the two-operand concatenated form of
    Eq. 8 (one GEMM of shape (m, k+k) x (k+k, n)); otherwise the
    three-GEMM Eq. 6. Both are exact.
    """
    if party_id not in (0, 1):
        raise ProtocolError(f"party_id must be 0 or 1, got {party_id}")
    if triplet.party_id != party_id:
        raise ProtocolError(
            f"triplet share belongs to party {triplet.party_id}, used by party {party_id}"
        )
    triplet.mark_consumed()
    if use_fused_form:
        # Eq. 8: left = [(-i)*E + A_i | E], right = [F ; B_i].
        lead = a_share if party_id == 0 else ring_sub(a_share, e)
        left = np.concatenate([lead, e], axis=1)
        right = np.concatenate([f, b_share], axis=0)
        return ring_add(matmul(left, right), triplet.z)
    # Eq. 6: C_i = (-i) E F + A_i F + E B_i + Z_i.
    c = ring_add(matmul(a_share, f), matmul(e, b_share))
    if party_id == 1:
        c = ring_sub(c, matmul(e, f))
    return ring_add(c, triplet.z)


def secure_matmul_plain(
    a_pair,
    b_pair,
    triplet,
    *,
    label: str = "matmul",
    matmul: Callable = ring_matmul,
    use_fused_form: bool = True,
):
    """Run the whole two-server matmul protocol in-process (no transport).

    Takes the client's share pairs of ``A`` and ``B`` plus a dealer
    triplet, simulates both servers' local steps and the exchange, and
    returns ``(C_0, C_1)``. ``label`` names the op stream in diagnostics.
    """
    if triplet.shape_a != a_pair[0].shape or triplet.shape_b != b_pair[0].shape:
        raise ProtocolError(
            f"[{getattr(triplet, 'backend', 'beaver2pc')}] {label}: triplet shaped "
            f"{triplet.shape_a}x{triplet.shape_b} does not match "
            f"operands {a_pair[0].shape}x{b_pair[0].shape}"
        )
    # Step 1-2: masked differences and exchange.
    e = combine_masked(*(masked_difference(a_pair[i], triplet.u[i]) for i in (0, 1)))
    f = combine_masked(*(masked_difference(b_pair[i], triplet.v[i]) for i in (0, 1)))
    # Step 3: each server's output share.
    return tuple(
        beaver_matmul_share(
            i, e, f, a_pair[i], b_pair[i], triplet.share_for(i),
            matmul=matmul, use_fused_form=use_fused_form,
        )
        for i in (0, 1)
    )


# ------------------------------------------------------------ the comparison


def emulated_ge_const(
    x0: np.ndarray,
    x1: np.ndarray,
    c_encoded: int,
    rng: np.random.Generator,
) -> ComparisonResult:
    """Plaintext reference for :func:`~repro.mpc.comparison.secure_ge_const`.

    Reconstructs ``x``, computes the indicator ``[x >= c]`` in the clear
    (two's-complement ring semantics, which the real protocol matches
    exactly), re-shares it with ``rng`` and reports the byte/round
    accounting the real protocol must report.  Its output shares are a
    fresh sharing of the indicator, not the B2A output.
    """
    x0 = np.asarray(x0, dtype=RING_DTYPE)
    x1 = np.asarray(x1, dtype=RING_DTYPE)
    c = np.uint64(int(c_encoded) % 2**64)
    with np.errstate(over="ignore"):
        y = (x0 + x1) - c
    indicator = (y.view(np.int64) >= 0).astype(np.uint64)
    pair = share_secret(indicator, rng)
    return ComparisonResult(
        share0=pair.share0,
        share1=pair.share1,
        online_bytes=comparison_online_bytes(indicator.size),
        rounds=_ROUNDS,
    )


# ------------------------------------------------------------------ the SVM


class SMOSVM:
    """Binary linear SVM trained with simplified SMO (Platt 1998 with the
    standard heuristic simplifications), the trainer paper Section 7.1
    names for its SVMs.

    Labels must be in {-1, +1}.  ``C`` is the box constraint, ``tol``
    the KKT tolerance, ``max_passes`` the number of full passes without
    progress before stopping.
    """

    def __init__(
        self,
        C: float = 1.0,
        *,
        tol: float = 1e-3,
        max_passes: int = 5,
        max_iter: int = 10_000,
        seed: int = 0,
    ):
        if C <= 0:
            raise ConfigError(f"C must be positive, got {C}")
        self.C = C
        self.tol = tol
        self.max_passes = max_passes
        self.max_iter = max_iter
        self._rng = np.random.default_rng(seed)
        self.alpha: np.ndarray | None = None
        self.b: float = 0.0
        self.x: np.ndarray | None = None
        self.y: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "SMOSVM":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if set(np.unique(y)) - {-1.0, 1.0}:
            raise ConfigError("SMO labels must be in {-1, +1}")
        n = x.shape[0]
        self.x, self.y = x, y
        self.alpha = np.zeros(n)
        self.b = 0.0
        k = x @ x.T

        passes = 0
        iters = 0
        while passes < self.max_passes and iters < self.max_iter:
            changed = 0
            for i in range(n):
                iters += 1
                e_i = self._decision_cached(k, i) - y[i]
                if (y[i] * e_i < -self.tol and self.alpha[i] < self.C) or (
                    y[i] * e_i > self.tol and self.alpha[i] > 0
                ):
                    j = self._pick_second(i, n)
                    e_j = self._decision_cached(k, j) - y[j]
                    if self._take_step(k, i, j, e_i, e_j):
                        changed += 1
            passes = passes + 1 if changed == 0 else 0
        return self

    def _pick_second(self, i: int, n: int) -> int:
        j = int(self._rng.integers(0, n - 1))
        return j if j < i else j + 1

    def _decision_cached(self, k: np.ndarray, i: int) -> float:
        return float((self.alpha * self.y) @ k[:, i] + self.b)

    def _take_step(self, k: np.ndarray, i: int, j: int, e_i: float, e_j: float) -> bool:
        y_i, y_j = self.y[i], self.y[j]
        a_i_old, a_j_old = self.alpha[i], self.alpha[j]
        if y_i != y_j:
            lo, hi = max(0.0, a_j_old - a_i_old), min(self.C, self.C + a_j_old - a_i_old)
        else:
            lo, hi = max(0.0, a_i_old + a_j_old - self.C), min(self.C, a_i_old + a_j_old)
        if lo >= hi:
            return False
        eta = 2.0 * k[i, j] - k[i, i] - k[j, j]
        if eta >= 0:
            return False
        a_j = np.clip(a_j_old - y_j * (e_i - e_j) / eta, lo, hi)
        if abs(a_j - a_j_old) < 1e-6 * (a_j + a_j_old + 1e-6):
            return False
        a_i = a_i_old + y_i * y_j * (a_j_old - a_j)
        self.alpha[i], self.alpha[j] = a_i, a_j
        b1 = self.b - e_i - y_i * (a_i - a_i_old) * k[i, i] - y_j * (a_j - a_j_old) * k[i, j]
        b2 = self.b - e_j - y_i * (a_i - a_i_old) * k[i, j] - y_j * (a_j - a_j_old) * k[j, j]
        if 0 < a_i < self.C:
            self.b = b1
        elif 0 < a_j < self.C:
            self.b = b2
        else:
            self.b = (b1 + b2) / 2.0
        return True

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        if self.alpha is None:
            raise ConfigError("fit() before decision_function()")
        return (np.asarray(x, dtype=np.float64) @ self.x.T) @ (self.alpha * self.y) + self.b

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.sign(self.decision_function(x))

    @property
    def weight_vector(self) -> np.ndarray:
        """Primal weights."""
        return (self.alpha * self.y) @ self.x


# ------------------------------------------------------- the fleet replay

#: The replica methods a fleet drives; the replay repeats them in order.
REPLICA_CALLS = ("submit", "force_admit", "pump", "drain", "take_pending", "respawn")


class ReplicaRecorder:
    """Log every replica-protocol call, per replica name, while active.

    Patches :data:`REPLICA_CALLS` on :class:`Replica` itself, so every
    replica built while the recorder is active is covered, retired and
    respawned ones included.  Only the outermost call per replica is
    logged (``drain`` calls ``pump``), as ``[method, args, raised]``: a
    deep copy of the arguments, so the caller may reuse its arrays, and
    the :class:`ReproError` class the call raised (``None`` if none) —
    a :class:`PartyFailure` from a crashed batch, a
    :class:`QueueFullError` from a refused submit.
    Use as a context manager, or :meth:`start` / :meth:`stop`.
    """

    def __init__(self):
        self.replicas: dict[str, Replica] = {}
        self.calls: dict[str, list[list]] = {}
        self._depth: dict[str, int] = {}
        self._originals: dict[str, Callable] = {}

    def __enter__(self) -> "ReplicaRecorder":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> None:
        for method in REPLICA_CALLS:
            original = self._originals[method] = getattr(Replica, method)
            setattr(Replica, method, self._recording(method, original))

    def stop(self) -> None:
        for method, original in self._originals.items():
            setattr(Replica, method, original)
        self._originals.clear()

    def _recording(self, method: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def recorded(replica, *args):
            name = replica.name
            if self.replicas.setdefault(name, replica) is not replica:
                raise AssertionError(f"two replicas named {name!r} under one recorder")
            depth = self._depth.get(name, 0)
            if depth == 0:
                entry = [method, copy.deepcopy(args), None]
                self.calls.setdefault(name, []).append(entry)
            self._depth[name] = depth + 1
            try:
                return original(replica, *args)
            except ReproError as exc:
                if depth == 0:
                    entry[2] = type(exc)
                raise
            finally:
                self._depth[name] = depth

        return recorded

    def verify(self, model_factory) -> dict[str, str | None]:
        """Stop recording, replay every replica; ``{name: None}`` on bit-identity.

        A failing replica maps to a description of its first divergence.
        Every recorded replica must have recorded its transcript.
        """
        self.stop()
        results = {}
        for name, replica in self.replicas.items():
            if replica.recorder is None:
                raise ConfigError(
                    f"{name} recorded no transcript; build the fleet with audit=True"
                )
            replay = replay_replica(replica, self.calls[name], model_factory)
            results[name] = diff_replica(replica, replay)
        return results


def replay_replica(replica: Replica, calls: list, model_factory) -> Replica:
    """Re-run ``calls`` on a fresh standalone twin of ``replica``.

    The twin has the replica's config (``replica.ctx.config``, fault
    plan included), batcher, queue bound and retry budget, and always
    records its transcript.  Each call must raise what it raised in the
    fleet, or the replay fails with an :class:`AssertionError`.
    """
    ctx = SecureContext.create(replica.ctx.config)
    twin = Replica(
        ctx,
        model_factory(ctx),
        name=replica.name,
        max_batch=replica.batcher.max_batch,
        max_wait_s=replica.batcher.max_wait_s,
        queue_rows=replica.queue.max_rows,
        request_retries=replica.request_retries,
        audit=True,
    )
    for step, (method, args, raised) in enumerate(calls):
        try:
            getattr(twin, method)(*args)
            outcome = None
        except ReproError as exc:
            outcome = type(exc)
        if outcome is not raised:
            raise AssertionError(
                f"{replica.name} call {step} ({method}) raised {outcome} in the "
                f"replay but {raised} in the fleet"
            )
    return twin


def diff_replica(original: Replica, replay: Replica) -> str | None:
    """Bit-compare a fleet replica against its standalone replay."""
    divergence = original.recorder.transcript().diff(replay.recorder.transcript())
    if divergence is not None:
        return f"transcript divergence: {divergence.describe()}"
    mine = original.report().responses
    theirs = replay.report().responses
    if len(mine) != len(theirs):
        return f"response count {len(mine)} != replay {len(theirs)}"
    for a, b in zip(mine, theirs):
        if (a.client_id, a.request_id) != (b.client_id, b.request_id):
            return (
                f"response order diverged: ({a.client_id},{a.request_id}) "
                f"!= ({b.client_id},{b.request_id})"
            )
        if not np.array_equal(a.predictions, b.predictions):
            return f"predictions diverged for ({a.client_id},{a.request_id})"
    return None
