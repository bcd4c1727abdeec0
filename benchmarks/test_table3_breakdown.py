"""Table 3 — online/total time and occupancy for both systems.

Paper: SecureML's online phase is >90% of total in almost every cell
(78.5-99.7%); after GPU acceleration ParSecureML's occupancy drops to
54.2% on average (19.0-92.0%), which is the direct evidence the
acceleration landed where the time was.  Shape claims: SecureML
occupancy high everywhere; ParSecureML occupancy strictly lower in
every cell; averages ordered the same way.

**Open paper-shape regression (PR 23, needs a decision — EXPERIMENTS
"Open once").**  "SecureML is online-dominated in every cell" does not
hold on SVM any more: its step is ``X w`` and ``X^T d`` over one ``X``,
the SecureML-mode baseline opens that ``X`` once a step like the real
SecureML, the second opening was about half of its online step, and
without it the client-side encryption both systems share is the larger
part of the total (occupancy 40-44 %; the lowest cell read 53.9 %
before).  The floor is not lowered: ``test_table3`` holds it on every
other cell and ``test_table3_svm_cells`` holds it on SVM, marked as an
expected failure until the regression is decided.  Since the
comparison became a borrow tree, the average over all 26 cells no longer
clears its floor either: it reads 74.84 % against ``> 75.0``, because the
faster comparison shortened SecureML's online time on the
comparison-heavy cells, the five SVM cells included (ROADMAP "Paper
claims" (1)); 74.77 % since a product's rescale runs in its last pass.
The floor is not lowered.
"""

import pytest
from conftest import grid_cells
from repro.bench.reporting import format_table

#: SecureML is online-dominated in every cell (paper: 78.5-99.7 %)
SML_OCC_FLOOR = 50.0


def build(grid):
    rows = []
    for model, dataset in grid_cells():
        sml = grid.sml(model, dataset)
        par = grid.par(model, dataset)
        rows.append(
            {
                "Dataset": dataset,
                "Model": model,
                "SML online (s)": sml.online_s(),
                "SML total (s)": sml.total_s(),
                "SML occ (%)": 100 * sml.occupancy,
                "Par online (s)": par.online_s(),
                "Par total (s)": par.total_s(),
                "Par occ (%)": 100 * par.occupancy,
            }
        )
    return rows


def test_table3(grid, benchmark):
    rows = benchmark.pedantic(lambda: build(grid), rounds=1, iterations=1)
    print()
    print(format_table(
        rows,
        ["Dataset", "Model", "SML online (s)", "SML total (s)", "SML occ (%)",
         "Par online (s)", "Par total (s)", "Par occ (%)"],
        title="Table 3: time breakdown and online occupancy",
    ))
    for r in rows:
        if r["Model"] != "SVM":  # test_table3_svm_cells
            assert r["SML occ (%)"] > SML_OCC_FLOOR, (
                "SecureML is online-dominated (paper: 78.5-99.7%)"
            )
        assert r["Par occ (%)"] < r["SML occ (%)"], (
            "GPU acceleration must reduce the online share"
        )
    sml_avg = sum(r["SML occ (%)"] for r in rows) / len(rows)
    par_avg = sum(r["Par occ (%)"] for r in rows) / len(rows)
    assert sml_avg > 75.0, "SecureML average occupancy stays high (paper: ~96%)"
    assert par_avg < sml_avg - 10.0, "acceleration visibly reduces occupancy (paper: ~54%)"


@pytest.mark.xfail(strict=True, reason="SVM cells read 40-44 % since SecureML opens X once a step")
def test_table3_svm_cells(grid):
    for r in build(grid):
        if r["Model"] == "SVM":
            assert r["SML occ (%)"] > SML_OCC_FLOOR, r
