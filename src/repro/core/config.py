"""Framework configuration.

One dataclass gathers every switch the paper evaluates, so each
experiment is "build a config, run the trainer":

* Fig. 10-13 baselines vs ParSecureML — :meth:`FrameworkConfig.parsecureml`
  vs :meth:`FrameworkConfig.secureml`;
* Fig. 14 — ``cpu_spec`` and ``client_cpu_spec`` at the default Xeon or
  :data:`~repro.simgpu.cost.XEON_SERIAL_SPEC` (Section 5.1's parallelism
  on/off);
* Fig. 15 — ``gpu_spec`` at the default V100 or
  :data:`~repro.simgpu.cost.V100_FP32_SPEC` (Tensor Cores on/off);
* Fig. 16 — ``fresh_triplets`` off/on (what stable masks keep off the
  wire; ``compression`` on/off is its CSR-codec share);
* pipeline ablations — ``pipeline1`` / ``double_pipeline`` on/off;
* placement ablation — ``placement_mode`` (``"cpu_always"`` builds no
  GPU at all).

The inter-server wire path is not a switch: every server-to-server
message is charged at its exact RPW1 framed size (:mod:`repro.comm.wire`)
and the Eq. 5 ``E``/``F`` pair of one multiplication rides one packed
frame per direction.  Nor are a server GPU's stream count
(:class:`~repro.simgpu.device.SimGPU`'s two) and the delta
compressor's sparsity threshold
(:class:`~repro.comm.compression.DeltaCompressor`'s 75 %; the
threshold ablation drives the compressor directly).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Literal

from repro.comm.channel import INFINIBAND_100G, LinkSpec
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.simgpu.cost import (
    CPUSpec,
    DeviceSpec,
    V100_SPEC,
    XEON_E5_2670V3_SPEC,
    XEON_SERIAL_SPEC,
)
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class FrameworkConfig:
    """All knobs of the secure training/inference stack."""

    # MPC substrate (repro.protocols registry name).  "beaver2pc" is the
    # paper's 2-party Beaver-triplet protocol; "rep3" is dealer-free
    # 3-party replicated sharing.  Validated lazily by
    # repro.protocols.get_backend so third-party registrations work.
    backend: str = "beaver2pc"

    # numeric representation
    frac_bits: int = 13

    # GPU usage ("cpu_always": no party has a GPU)
    placement_mode: Literal["adaptive", "cpu_always", "gpu_always"] = "adaptive"

    # pipelines (paper Section 4.3)
    pipeline1: bool = True  # PCIe/kernel overlap inside the Eq. 8 GEMM
    double_pipeline: bool = True  # cross-layer reconstruct/GPU-op overlap

    # inter-server communication (Section 4.4)
    compression: bool = True

    # Beaver-mask lifetime.  The paper's delta compression (Eqs. 10-12)
    # requires the masks U_i/V_i of a given operand stream to be *reused*
    # across iterations (E_{j+1} = E_j + Delta only holds for fixed U) —
    # so, following the paper, each op stream gets one triplet generated
    # at setup and reused.  Stable masks are also what lets the servers
    # open an unchanged weight's F = W - V once and keep it, with the
    # stream's Z, on the GPU (DESIGN 5b).  Set True to regenerate per
    # use (single-use triplets, stronger privacy: compression never
    # fires and nothing masked outlives an online step or stays
    # resident).  In both modes a mask belongs to a value: the products
    # that multiply one tensor within a step share its mask, so the
    # tensor is opened once and uploaded to a server GPU once (DESIGN 5,
    # 5b).
    fresh_triplets: bool = False

    # hardware.  cpu_spec is the servers' CPU, client_cpu_spec the
    # client's (its encrypt path and dealer).  The client code is
    # infrastructure shared by both evaluated systems (the SecureML
    # baseline is the paper authors' reimplementation on the same
    # cluster), so the SecureML preset keeps the client's Section 5.1
    # parallelism; the Fig. 14 ablation makes both serial.
    gpu_spec: DeviceSpec = V100_SPEC
    cpu_spec: CPUSpec = XEON_E5_2670V3_SPEC
    client_cpu_spec: CPUSpec = XEON_E5_2670V3_SPEC
    server_link: LinkSpec = INFINIBAND_100G
    uplink: LinkSpec = INFINIBAND_100G

    # fault tolerance (repro.faults): a plan makes the inter-server link
    # adversarial — the context wires a ResilientChannel + FaultInjector,
    # and the drivers checkpoint/retry per retry_policy.  None = the
    # paper's perfect fabric.
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)

    # reproducibility
    seed: int = 0

    # tracing (long benchmark runs turn this off to save memory)
    trace: bool = False

    def __post_init__(self):
        for name in ("frac_bits", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.frac_bits <= 30:
            raise ConfigError(f"frac_bits out of range: {self.frac_bits}")
        kinds = {"gpu_spec": DeviceSpec, "cpu_spec": CPUSpec, "client_cpu_spec": CPUSpec,
                 "server_link": LinkSpec, "uplink": LinkSpec}
        for name, kind in kinds.items():
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        allowed = ("adaptive", "cpu_always", "gpu_always")
        if self.placement_mode not in allowed:
            raise ConfigError(
                f"placement_mode must be one of {allowed}, got {self.placement_mode!r}"
            )

    # -- preset constructors ----------------------------------------------------

    @staticmethod
    def parsecureml(**overrides) -> "FrameworkConfig":
        """The full ParSecureML system (all paper optimisations on)."""
        return FrameworkConfig(**overrides)

    @staticmethod
    def secureml(**overrides) -> "FrameworkConfig":
        """SecureML mode: CPU-only two-party computation, no pipelines,
        no compression — the paper's baseline (it reimplements [10]).

        The protocol is the same as under :meth:`parsecureml`: a model
        trained under either from one seed ends with the same decoded
        parameters, so every measured difference is systems work."""
        base = dict(
            placement_mode="cpu_always",
            pipeline1=False,
            double_pipeline=False,
            compression=False,
            cpu_spec=XEON_SERIAL_SPEC,
        )
        base.update(overrides)
        return FrameworkConfig(**base)

    def but(self, **overrides) -> "FrameworkConfig":
        """A copy with some fields replaced (ablation helper)."""
        unknown = sorted(set(overrides) - {f.name for f in fields(self)})
        if unknown:
            raise ConfigError(f"unknown FrameworkConfig field(s): {', '.join(unknown)}")
        return replace(self, **overrides)
