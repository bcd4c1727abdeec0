"""Differential conformance sweep: 8 models x config axes vs plain.

Every cell must agree with the plain baseline within fixed-point
tolerance; cost-only axes must additionally be bit-identical to the
baseline axis.  Static-operand reuse is on in every cell; the
three-batch ``REUSE_CELLS`` make each weight's ``F`` hit twice and are
held bit-identical to a run that never reuses.  The sweep runs per
protocol backend (set
``REPRO_CONFORMANCE_BACKENDS`` to restrict — CI shards the matrix this
way).  On a disagreement the failing run's transcript is dumped as JSON
to ``REPRO_CONFORMANCE_ARTIFACTS`` (default ``conformance-artifacts/``)
so CI can upload it for offline replay.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest
from conftest import never_reuse

from repro.audit import (
    BIT_IDENTICAL_AXES,
    CONFORMANCE_AXES,
    CONFORMANCE_MODELS,
    ConformanceCase,
    run_conformance_case,
)
from repro.util.errors import ConfigError

pytestmark = pytest.mark.conformance

#: Backends the sweep covers; CI shards via the environment variable.
BACKENDS = tuple(
    os.environ.get("REPRO_CONFORMANCE_BACKENDS", "beaver2pc rep3").split()
)


#: Three-batch inference cells, by the config axis they run: a weight's
#: ``F`` and a stream's ``Z`` are reused in batches two *and* three (the
#: two-batch axis cells hit once).  ``mask_reuse`` is the default config.
REUSE_CELLS = {
    "mask_reuse": "baseline",
    "chaos+reuse": "chaos",
}
SWEEP_CELLS = sorted(CONFORMANCE_AXES) + sorted(REUSE_CELLS)


def _case(cell, **kw) -> ConformanceCase:
    if cell in REUSE_CELLS:
        return ConformanceCase(axis=REUSE_CELLS[cell], n_batches=3, **kw)
    return ConformanceCase(axis=cell, **kw)


def _run(cell, **kw):
    """One sweep cell against plain, wire-audited — the three-batch reuse
    cells too, under the auditor's stable-mask model (DESIGN §5): per
    mask the first opening is judged in full and a later one only where
    it differs from the one before, each position once, so a link's
    chi-square no longer grows with the batch count
    (``test_four_batch_training_is_audited`` is the cell that used to
    cross the ceiling), and a mask that opened two different values
    inside one step fails the cell."""
    return run_conformance_case(_case(cell, **kw))


def _dump_artifact(result) -> str:
    out_dir = Path(os.environ.get("REPRO_CONFORMANCE_ARTIFACTS", "conformance-artifacts"))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{result.case.name.replace('/', '-')}.json"
    result.transcript.dump(path)
    return str(path)


def _check(result):
    """Assert agreement; on failure leave the transcript for CI."""
    if not result.agreed or (result.wire is not None and not result.wire.passed):
        artifact = _dump_artifact(result)
        detail = result.describe()
        if result.wire is not None and not result.wire.passed:
            detail += "\n" + result.wire.summary()
        pytest.fail(f"{detail}\ntranscript dumped to {artifact}")


class TestForwardSweep:
    """All 8 models x all sweep cells x backends, forward."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", CONFORMANCE_MODELS)
    @pytest.mark.parametrize("cell", SWEEP_CELLS)
    def test_secure_matches_plain(self, model, cell, backend):
        _check(_run(cell, model=model, backend=backend))


class TestTrainingSweep:
    """Training conformance: the backward pass agrees too."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", CONFORMANCE_MODELS)
    def test_trained_predictions_match_plain(self, model, backend):
        result = run_conformance_case(
            ConformanceCase(model=model, axis="baseline", train=True, backend=backend)
        )
        _check(result)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("cell", ["mask_reuse"])
    def test_training_under_offline_axes(self, cell, backend):
        _check(_run(cell, model="MLP", train=True, backend=backend))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_four_batch_training_is_audited(self, backend):
        """Four training batches, then four of inference: under the
        exact-repeat de-dup this link read chi2 = 439 against the
        ceiling of 420 (an indicator's ``F`` repeats half its bytes
        from one batch to the next)."""
        _check(run_conformance_case(ConformanceCase(
            model="MLP", axis="baseline", train=True, n_batches=4, backend=backend
        )))


class TestBitIdentity:
    """Cost-only knobs must not move a single prediction bit."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", CONFORMANCE_MODELS)
    @pytest.mark.parametrize("cell", sorted(BIT_IDENTICAL_AXES) + sorted(REUSE_CELLS))
    def test_cost_only_axis_is_bit_identical(self, model, cell, backend, monkeypatch):
        """An axis cell against the baseline axis; a reuse cell against
        the same three batches on a context that never reuses (still the
        baseline axis)."""
        variant = run_conformance_case(
            _case(cell, model=model, backend=backend), audit=False
        )
        if cell in REUSE_CELLS:
            never_reuse(monkeypatch)
        reference = dataclasses.replace(_case(cell, model=model, backend=backend), axis="baseline")
        base = run_conformance_case(reference, audit=False)
        np.testing.assert_array_equal(base.predictions, variant.predictions)

    @pytest.mark.parametrize("cell", sorted(REUSE_CELLS))
    def test_reuse_cells_do_reuse(self, cell, monkeypatch):
        """Two dense layers, hit in batches two and three (same count
        under chaos: drops and delays retransmit, they do not restart)."""
        from repro.core.context import SecureContext

        hits = []
        reuse_masked = SecureContext.reuse_masked

        def spy(ctx, *args):
            found = reuse_masked(ctx, *args)
            hits.append(found is not None)
            return found

        monkeypatch.setattr(SecureContext, "reuse_masked", spy)
        run_conformance_case(_case(cell, model="MLP"), audit=False)
        assert sum(hits) == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replay_same_cell_is_bit_identical(self, backend):
        first = run_conformance_case(
            ConformanceCase("logistic", "baseline", backend=backend)
        )
        second = run_conformance_case(
            ConformanceCase("logistic", "baseline", backend=backend)
        )
        first.transcript.assert_identical(second.transcript)
        np.testing.assert_array_equal(first.predictions, second.predictions)


class TestCaseValidation:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="model"):
            ConformanceCase(model="transformer", axis="baseline")

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="axis"):
            ConformanceCase(model="MLP", axis="turbo")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            ConformanceCase(model="MLP", axis="baseline", backend="rep5")

    def test_sweep_matrix_is_complete(self):
        # acceptance criterion: 6 paper models + attention/recsys, x 3 axes
        assert len(CONFORMANCE_MODELS) == 8
        assert "attention" in CONFORMANCE_MODELS
        assert "recsys" in CONFORMANCE_MODELS
        # baseline + no_compression, chaos: an axis is added or removed
        # deliberately, never by accident
        assert len(CONFORMANCE_AXES) == 3
        assert set(BIT_IDENTICAL_AXES) < set(CONFORMANCE_AXES)
        assert set(REUSE_CELLS.values()) < set(CONFORMANCE_AXES)


class TestWireAxes:
    """The one wire path (no axis left): framed, round-coalesced, byte-accounted."""

    @staticmethod
    def _mlp_inference(cell, backend):
        from repro.core.context import SecureContext
        from repro.core.inference import secure_predict
        from repro.core.models import SecureMLP

        case = _case(cell, model="MLP", backend=backend)
        ctx = SecureContext.create(case.config())
        recorder = ctx.attach_recorder()
        model = SecureMLP(ctx, 12, hidden=(8,), n_out=3)
        x = 0.5 * np.random.default_rng(2).standard_normal((16 * case.n_batches, 12))
        secure_predict(ctx, model, x, batch_size=16)
        return ctx, recorder.transcript()

    # every fault-free cell (chaos retransmits, which the check rejects):
    # from the second batch on a round frame has one part, E alone (two
    # such batches under mask_reuse); no_compression sends dense parts only
    @pytest.mark.parametrize(
        "axis", [a for a in CONFORMANCE_AXES if a != "chaos"] + ["mask_reuse"]
    )
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_byte_accounting_reconciles(self, axis, backend):
        from repro.audit.wire import assert_byte_accounting

        ctx, transcript = self._mlp_inference(axis, backend)
        assert_byte_accounting(transcript, ctx.telemetry)

    def test_byte_accounting_rejects_faulty_runs(self):
        from repro.audit.wire import assert_byte_accounting
        from repro.audit.transcript import Transcript
        from repro.telemetry import Telemetry
        from repro.util.errors import AuditError

        telemetry = Telemetry()
        telemetry.registry.counter("faults.retransmits", "").inc(3)
        with pytest.raises(AuditError, match="fault-free"):
            assert_byte_accounting(Transcript(()), telemetry)

    def test_frame_overhead_and_coalesced_counters(self):
        for backend in BACKENDS:
            ctx, _transcript = self._mlp_inference("baseline", backend)
            reg = ctx.telemetry.registry
            assert reg.counter("comm.frame_overhead_bytes").value() > 0
            coalesced = reg.counter("comm.coalesced_messages").value()
            if backend == "beaver2pc":
                assert coalesced > 0  # every Eq. 5 round packs E and F
            else:
                assert coalesced == 0  # rep3 sends once per link per round
