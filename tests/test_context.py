"""SecureContext wiring: config presets, phase marks, triplet caching."""

import numpy as np
import pytest

from conftest import make_ctx
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.simgpu.cost import V100_SPEC, XEON_E5_2670V3_SPEC, XEON_SERIAL_SPEC
from repro.util.errors import ConfigError


class TestConfig:
    def test_parsecureml_preset(self):
        cfg = FrameworkConfig.parsecureml()
        assert cfg.placement_mode == "adaptive" and cfg.pipeline1 and cfg.double_pipeline
        assert cfg.compression and cfg.gpu_spec == V100_SPEC  # Tensor Cores on
        assert cfg.cpu_spec == cfg.client_cpu_spec == XEON_E5_2670V3_SPEC  # Section 5.1 on

    def test_secureml_preset(self):
        cfg = FrameworkConfig.secureml()
        assert cfg.placement_mode == "cpu_always"
        assert not cfg.pipeline1 and not cfg.double_pipeline
        assert not cfg.compression and cfg.cpu_spec == XEON_SERIAL_SPEC
        # shared client infrastructure keeps its parallelism
        assert cfg.client_cpu_spec == XEON_E5_2670V3_SPEC

    def test_but_override(self):
        cfg = FrameworkConfig.parsecureml().but(compression=False)
        assert not cfg.compression
        assert cfg.placement_mode == "adaptive"

    @pytest.mark.parametrize("knob", ["tensor_core", "cpu_parallel", "client_parallel", "use_gpu"])
    def test_an_ablation_knob_is_a_config_error_naming_it(self, knob):
        """The hardware ablations are specs (``gpu_spec``, ``cpu_spec``,
        ``client_cpu_spec``) and ``placement_mode``, not switches."""
        with pytest.raises(ConfigError, match=knob):
            FrameworkConfig().but(**{knob: False})

    @pytest.mark.parametrize(
        "field,value",
        [("cpu_spec", V100_SPEC), ("client_cpu_spec", V100_SPEC), ("gpu_spec", XEON_SERIAL_SPEC),
         ("server_link", XEON_SERIAL_SPEC), ("uplink", None)],
    )
    def test_a_spec_of_the_wrong_kind_is_a_config_error(self, field, value):
        """Refused when built: a spec of another kind would fail only when
        a step is priced, as a bare ValueError or AttributeError."""
        with pytest.raises(ConfigError, match=field):
            FrameworkConfig(**{field: value})

    def test_cpu_always_builds_no_gpu(self):
        """No party of a ``cpu_always`` deployment has a GPU, so no
        ``simgpu.*`` metric is registered."""
        ctx = SecureContext(FrameworkConfig(placement_mode="cpu_always"))
        assert ctx.client_gpu is None and ctx.server_gpu == [None, None]
        assert not [n for n in ctx.telemetry.registry.metrics() if n.startswith("simgpu.")]
        clocks = (ctx.online_clock, ctx.offline_clock)
        assert not [r for clock in clocks for r in clock.resources() if "gpu" in r]
        adaptive = SecureContext(FrameworkConfig())
        assert "simgpu.gemm_count" in adaptive.telemetry.registry.metrics()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("frac_bits", 0), ("frac_bits", 40), ("placement_mode", "sometimes"),
            ("frac_bits", 13.5), ("frac_bits", True), ("frac_bits", "13"),
            ("seed", 1.5), ("seed", False), ("seed", None),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigError, match=field):
            FrameworkConfig(**{field: value})


class TestHarnessesRunTheDefaultConfig:
    """Conformance, bench and chaos build their configs from the presets
    and change only the fields their own arguments name, so what they
    pin and measure is what a default ``FrameworkConfig`` runs."""

    @pytest.mark.parametrize("backend", ["beaver2pc", "rep3"])
    def test_conformance_baseline_is_the_default(self, backend):
        from repro.audit import ConformanceCase

        case = ConformanceCase("MLP", "baseline", seed=3, backend=backend)
        assert case.config() == FrameworkConfig.parsecureml(seed=3, backend=backend)

    def test_bench_rows_are_the_presets(self):
        from repro.bench.__main__ import _configs

        assert dict(_configs("both")) == {
            "SecureML": FrameworkConfig.secureml(),
            "ParSecureML": FrameworkConfig.parsecureml(),
        }
        rows = dict(_configs("par", backends=["rep3"]))
        assert rows == {"ParSecureML[rep3]": FrameworkConfig.parsecureml(backend="rep3")}

    def test_chaos_run_is_the_default_plus_its_plan(self, monkeypatch):
        from repro.faults import FaultPlan
        from chaos_harness import train_mlp_under_plan

        built = []
        create = SecureContext.create
        monkeypatch.setattr(
            SecureContext, "create", lambda cfg: built.append(cfg) or create(cfg)
        )
        plan = FaultPlan(seed=1, drop=0.05)
        train_mlp_under_plan(None)
        train_mlp_under_plan(plan, compression=False)
        assert built == [
            FrameworkConfig.parsecureml(),
            FrameworkConfig.parsecureml(fault_plan=plan, compression=False),
        ]


class TestContextWiring:
    def test_secureml_mode_has_no_gpus(self):
        ctx = SecureContext(FrameworkConfig.secureml())
        assert ctx.client_gpu is None
        assert ctx.server_gpu == [None, None]
        assert ctx.profiler.mode == "cpu_always"

    def test_parsecureml_has_gpus(self, ctx):
        assert ctx.client_gpu is not None
        assert all(g is not None for g in ctx.server_gpu)

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=(8, 8))
        pairs = []
        for _ in range(2):
            ctx = make_ctx(seed=42)
            pairs.append(ctx.share_plain(x, label="t"))
        assert np.array_equal(pairs[0].share0, pairs[1].share0)

    def test_different_seeds_differ(self, rng):
        x = rng.normal(size=(8, 8))
        a = make_ctx(seed=1).share_plain(x, label="t")
        b = make_ctx(seed=2).share_plain(x, label="t")
        assert not np.array_equal(a.share0, b.share0)


class TestPhaseAccounting:
    def test_marks_are_monotone(self, ctx, rng):
        m0 = ctx.mark()
        ctx.share_plain(rng.normal(size=(64, 64)), label="a")
        d = ctx.since(m0)
        assert d.offline_s > 0
        assert d.online_s == 0
        assert d.uplink_bytes == 2 * 64 * 64 * 8


class TestTripletCache:
    def test_same_label_same_triplet(self, ctx):
        t1 = ctx.get_matrix_triplet("layer0", (4, 4), (4, 4))
        t2 = ctx.get_matrix_triplet("layer0", (4, 4), (4, 4))
        assert t1 is t2

    def test_shape_change_regenerates(self, ctx):
        t1 = ctx.get_matrix_triplet("layer0", (4, 4), (4, 4))
        t2 = ctx.get_matrix_triplet("layer0", (4, 4), (4, 2))
        assert t1 is not t2

    def test_different_labels_independent(self, ctx):
        t1 = ctx.get_matrix_triplet("a", (4, 4), (4, 4))
        t2 = ctx.get_matrix_triplet("b", (4, 4), (4, 4))
        assert t1 is not t2
        assert not np.array_equal(t1.u.share0, t2.u.share0)

    def test_fresh_triplets_mode_never_caches(self):
        ctx = make_ctx(fresh_triplets=True)
        t1 = ctx.get_matrix_triplet("layer0", (4, 4), (4, 4))
        t2 = ctx.get_matrix_triplet("layer0", (4, 4), (4, 4))
        assert t1 is not t2

    def test_elementwise_cache(self, ctx):
        t1 = ctx.get_elementwise_triplet("h", (3, 3))
        assert ctx.get_elementwise_triplet("h", (3, 3)) is t1

    def test_generation_charges_offline(self, ctx):
        before = ctx.offline_clock.now()
        ctx.gen_matrix_triplet((64, 64), (64, 64))
        assert ctx.offline_clock.now() > before

    def test_comparison_bundle_always_returned_and_charged(self, ctx):
        before = ctx.offline_clock.now()
        bundle = ctx.gen_comparison_bundle((2, 2))
        assert bundle is not None and bundle.shape == (2, 2)
        assert ctx.offline_clock.now() > before
        assert ctx.telemetry.snapshot().counter("mpc.comparisons_issued") == 1
