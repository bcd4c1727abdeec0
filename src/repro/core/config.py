"""Framework configuration.

One dataclass gathers every switch the paper evaluates, so each
experiment is "build a config, run the trainer":

* Fig. 10-13 baselines vs ParSecureML — :meth:`FrameworkConfig.parsecureml`
  vs the SecureML-mode config in :mod:`repro.baselines.secureml`;
* Fig. 14 — ``cpu_parallel`` on/off;
* Fig. 15 — ``tensor_core`` on/off;
* Fig. 16 — ``fresh_triplets`` off/on (what stable masks keep off the
  wire; ``compression`` on/off is its CSR-codec share);
* pipeline ablations — ``pipeline1`` / ``double_pipeline`` on/off;
* placement ablation — ``placement_mode``.

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

from dataclasses import dataclass, field, fields, replace
from typing import Literal

from repro.comm.channel import INFINIBAND_100G, LinkSpec
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.simgpu.cost import CPUSpec, DeviceSpec, V100_SPEC, XEON_E5_2670V3_SPEC
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

    # GPU usage
    use_gpu: bool = True
    tensor_core: bool = True
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

    # CPU optimisations (Section 5.1).  cpu_parallel governs the servers'
    # online helpers; client_parallel governs the client's encrypt path.
    # The client code is infrastructure shared by both evaluated systems
    # (the SecureML baseline is the paper authors' reimplementation on
    # the same cluster), so the SecureML preset keeps client_parallel on;
    # the Fig. 14 ablation turns both off.
    cpu_parallel: bool = True
    client_parallel: bool = True

    # hardware
    gpu_spec: DeviceSpec = V100_SPEC
    cpu_spec: CPUSpec = XEON_E5_2670V3_SPEC
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
        if not 1 <= self.frac_bits <= 30:
            raise ConfigError(f"frac_bits out of range: {self.frac_bits}")
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
        no compression — the paper's baseline (it reimplements [10])."""
        base = dict(
            use_gpu=False,
            tensor_core=False,
            placement_mode="cpu_always",
            pipeline1=False,
            double_pipeline=False,
            compression=False,
            cpu_parallel=False,
        )
        base.update(overrides)
        return FrameworkConfig(**base)

    def but(self, **overrides) -> "FrameworkConfig":
        """A copy with some fields replaced (ablation helper)."""
        unknown = sorted(set(overrides) - {f.name for f in fields(self)})
        if unknown:
            raise ConfigError(f"unknown FrameworkConfig field(s): {', '.join(unknown)}")
        return replace(self, **overrides)
