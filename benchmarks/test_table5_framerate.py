"""Table 5: displayed frame rate (f/s) with a competing TCP flow.

Paper anchors: frame rates are near 60 f/s at 7x-BDP queues; against
Cubic they stay generally high (50+); against BBR with small/typical
queues they degrade -- Stadia and Luna to ~40 f/s, Luna as low as
~22 f/s at 15 Mb/s with a 0.5x queue -- while GeForce stays the most
resilient.
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.analysis.render import render_table
from repro.experiments.conditions import CAPACITIES, CCAS, QUEUE_MULTS, SYSTEM_NAMES
from repro.report import aggregate_results


def _build_table(results):
    report = aggregate_results(results, keep_bands=False)
    cells = {}
    for capacity in CAPACITIES:
        for queue in QUEUE_MULTS:
            for system in SYSTEM_NAMES:
                for cca in CCAS:
                    condition = report.get(system, cca, capacity, queue)
                    row = f"{capacity / 1e6:.0f} Mb/s"
                    col = f"{system[:4]} {queue:g}x {cca}"
                    cells[(row, col)] = condition.fps.mean_std()
    return cells


def test_table5(benchmark, contended_results):
    cells = benchmark(_build_table, contended_results)
    cols = [
        f"{system[:4]} {queue:g}x {cca}"
        for queue in sorted(QUEUE_MULTS)
        for system in SYSTEM_NAMES
        for cca in CCAS
    ]
    rows = [f"{c / 1e6:.0f} Mb/s" for c in sorted(CAPACITIES)]
    text = render_table(
        "Table 5: frame rate (f/s) with a competing TCP flow",
        rows,
        cols,
        cells,
    )
    write_artifact("table5_framerate.txt", text)

    def cell(capacity, system, queue, cca):
        return cells[(f"{capacity / 1e6:.0f} Mb/s", f"{system[:4]} {queue:g}x {cca}")][0]

    # Large queues keep frame rates near the 60 f/s target.
    for capacity in CAPACITIES:
        for system in SYSTEM_NAMES:
            for cca in CCAS:
                assert cell(capacity, system, 7.0, cca) > 45.0, (capacity, system, cca)

    # GeForce's frame rate is resilient everywhere (paper: always >50;
    # we allow a small margin).
    geforce = [
        cell(capacity, "geforce", queue, cca)
        for capacity in CAPACITIES
        for queue in QUEUE_MULTS
        for cca in CCAS
    ]
    assert min(geforce) > 40.0

    # BBR degrades Stadia/Luna frame rates at small queues more than
    # Cubic does.
    for system in ("stadia", "luna"):
        bbr_small = np.mean([cell(c, system, 0.5, "bbr") for c in CAPACITIES])
        cubic_small = np.mean([cell(c, system, 0.5, "cubic") for c in CAPACITIES])
        assert bbr_small < cubic_small, system

    # Luna's worst cell is the low-capacity small-queue BBR one (paper: ~22).
    luna_worst = cell(15e6, "luna", 0.5, "bbr")
    assert luna_worst < 40.0
