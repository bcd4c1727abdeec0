"""Fig. 10 — overall speedup of ParSecureML over SecureML.

Paper: average 33.8x across six models and five datasets, with larger
datasets seeing larger speedups and MNIST the smallest.  Shape claims:
every cell > 1x, the large-image datasets (VGGFace2/NIST) beat MNIST,
and the geomean stays at the recorded measurement (several-fold, below
the paper's average because *overall* includes the client encrypt cost
both systems share — EXPERIMENTS.md "Fig. 10").
"""

from conftest import grid_cells
from repro.bench.reporting import format_speedup_series, geomean

#: Geomean over the full 26-cell grid as recorded in EXPERIMENTS.md
#: "Fig. 10".  It read 5.48x until the backward pass stopped at the first
#: trainable layer: the skipped first-layer dX product was 27-32 % of
#: SecureML's CPU-bound online step on the dense models but 10-22 % of
#: ParSecureML's, whose total is mostly the offline phase both systems
#: share; removing it from both narrowed the ratio to 4.78x — less work
#: for both systems, not a slower ParSecureML.
RECORDED_GEOMEAN = 4.84


def build_speedups(grid):
    labels, speedups = [], []
    for model, dataset in grid_cells():
        par = grid.par(model, dataset)
        sml = grid.sml(model, dataset)
        labels.append(f"{dataset}/{model}")
        speedups.append(sml.total_s() / par.total_s())
    return labels, speedups


def test_fig10(grid, benchmark):
    labels, speedups = benchmark.pedantic(lambda: build_speedups(grid), rounds=1, iterations=1)
    print()
    print(format_speedup_series(labels, speedups,
                                title="Fig. 10: overall speedup, ParSecureML over SecureML (paper avg 33.8x)"))
    assert all(s > 1.0 for s in speedups), "ParSecureML must win every cell"
    g = geomean(speedups)
    assert 0.9 * RECORDED_GEOMEAN < g < 120.0, (
        f"geomean {g:.2f}x fell more than 10 % below the recorded {RECORDED_GEOMEAN}x"
    )
    by_ds = {}
    for label, s in zip(labels, speedups):
        by_ds.setdefault(label.split("/")[0], []).append(s)
    if "VGGFace2" in by_ds and "MNIST" in by_ds:
        assert geomean(by_ds["VGGFace2"]) > geomean(by_ds["MNIST"]), (
            "larger datasets must benefit more (paper Section 7.2 obs. 3)"
        )
