"""The protocol-backend interface every MPC substrate implements.

A :class:`ProtocolBackend` bundles everything that varies between MPC
substrates while the rest of the framework (tensors, layers, models,
training, serving, benchmarks) stays protocol-agnostic:

* the **share type** — how a plaintext ring tensor splits into
  ``n_parties`` shares, how those reconstruct, and how a public-scalar
  product is rescaled share-locally (:meth:`share_secret`,
  :meth:`reconstruct`, :meth:`truncate_values`);
* the **interactive ops** — multiplication, comparison and truncation
  protocols with full SimClock cost accounting
  (:meth:`matmul` / :meth:`elementwise_mul` / :meth:`compare_const` /
  :meth:`truncate`).  :mod:`repro.core.ops` decides whether a product
  is rescaled and sets its kind; the product rescales its own result
  where it is asked to, by :meth:`truncate` or inside the product;
* the **correlated-randomness source** — whether the substrate needs a
  dealer (Beaver triplets) or derives its randomness from pairwise PRG
  keys (:attr:`needs_dealer`).

The conformance contract: every backend must pass the differential
sweep in ``repro.audit.conformance`` (all eight models vs the plain
baselines, within the documented fixed-point tolerances) and the
chi-square wire-view auditor — nothing a backend puts on a server link
may be distinguishable from uniform ring noise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.comm.wire import blob_frame_sizes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tensor import SharedTensor


class ProtocolBackend:
    """Abstract MPC substrate; see module docstring for the contract."""

    #: registry key and the label used by ``protocol.*`` telemetry
    name: str = "abstract"
    #: number of computing servers the substrate runs on
    n_parties: int = 2
    #: whether a trusted dealer deals correlated randomness
    #: (Beaver triplets / comparison bundles) in the offline phase
    needs_dealer: bool = True
    #: the two parties that execute the 2-party comparison core (and
    #: therefore receive the dealer's comparison material)
    compare_parties: tuple[int, int] = (0, 1)

    # --- share algebra (pure, no clock) ------------------------------------

    def share_secret(self, secret: np.ndarray, rng) -> Sequence[np.ndarray]:
        """Split ``secret`` into ``n_parties`` indexable ring shares."""
        raise NotImplementedError

    def reconstruct(self, shares: Sequence[np.ndarray]) -> np.ndarray:
        """Inverse of :meth:`share_secret`."""
        raise NotImplementedError

    def truncate_values(
        self, shares: Sequence[np.ndarray], bits: int
    ) -> tuple[np.ndarray, ...]:
        """Share-local probabilistic truncation by ``bits`` (no wire)."""
        raise NotImplementedError

    # --- client upload accounting ------------------------------------------

    def upload_nbytes(self, nbytes: int) -> int:
        """Bytes the client uploads *per server* when sharing ``nbytes``."""
        raise NotImplementedError

    def upload_payloads(self, shares) -> tuple:
        """Per-server wire payloads for the transcript recorder."""
        raise NotImplementedError

    # --- interactive protocols (full cost accounting on ctx) ---------------

    def matmul(
        self, ctx, x: "SharedTensor", y: "SharedTensor", *, label: str, rescale: bool = False
    ) -> "SharedTensor":
        """``x @ y`` as a ``fixed`` tensor at the operands' summed scale,
        or, where ``rescale``, truncated by the encoder's fractional bits."""
        raise NotImplementedError

    def elementwise_mul(
        self, ctx, x: "SharedTensor", y: "SharedTensor", *, label: str, rescale: bool = False
    ) -> "SharedTensor":
        """``x * y``, scaled as :meth:`matmul`'s result."""
        raise NotImplementedError

    def compare_const(
        self, ctx, x: "SharedTensor", threshold: float, *, label: str
    ) -> "SharedTensor":
        raise NotImplementedError

    def truncate(self, ctx, x: "SharedTensor", *, label: str) -> "SharedTensor":
        """Rescale a double-scale product; a backend whose products
        rescale inside their last pass (``beaver2pc``) needs none."""
        raise NotImplementedError

    def _charge_compare(self, ctx, res, deps, *, label: str) -> tuple:
        """The online charge of one comparison ``res`` between
        :attr:`compare_parties`: the ``compare`` plan on each party after
        its ``deps``, one blob frame of the round traffic each way, the
        latency of every round after the first, and the join.  Returns
        each party's done task, in :attr:`compare_parties` order."""
        parties = self.compare_parties
        link = ctx.server_link(*parties)
        cpu = [
            ctx.profiler.run_plan(
                ctx.server_cpu[p], None, "compare", (res.share0.size,),
                deps=party_deps, label=f"{label}:gmw",
            )[-1]
            for p, party_deps in zip(parties, deps)
        ]
        # The bit rounds are costed in aggregate, so frame them as one
        # opaque blob: header once, body = the aggregate bytes.
        sizes = blob_frame_sizes(f"{label}:rounds", res.online_bytes // 2)
        extra_latency = (res.rounds - 1) * ctx.config.server_link.latency_s
        received = []
        for k, (src, dst) in enumerate((parties, parties[::-1])):
            src, dst = f"server{src}", f"server{dst}"
            sent = link.send_framed(src, dst, sizes, deps=(cpu[k],), label=f"{label}:rounds")
            # Size-only transcript record: the per-round content of the
            # bit rounds is not materialized here.
            ctx.record_wire(src, dst, f"{label}:rounds", nbytes=sizes.nbytes)
            received.append(ctx.online_clock.run(
                f"link.{src}->{dst}", extra_latency, deps=(sent,), label=f"{label}:latency"
            ))
        return tuple(ctx.online_clock.join([cpu[k], received[1 - k]]) for k in (0, 1))

    def softmax(self, ctx, x: "SharedTensor", *, label: str) -> "SharedTensor":
        """Row-wise softmax of a (b, d) fixed-point tensor.

        The default is the generic Morse-STF-style composition in
        :mod:`repro.mpc.softmax` — a tournament row max, clamp,
        exp-by-squaring and Newton normalization built purely from this
        backend's :meth:`elementwise_mul` / :meth:`compare_const`, so
        every registered substrate supports it out of the box; backends
        with a native softmax protocol may override.
        """
        from repro.mpc.softmax import softmax_protocol

        return softmax_protocol(ctx, x, label=label)
