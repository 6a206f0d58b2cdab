"""Table 4: round-trip time (ms) with a competing TCP flow.

Paper anchors: with Cubic the RTT pegs at the queue limit (~17-19 ms at
0.5x, ~40 ms at 2x, ~110 ms at 7x BDP); with BBR at 7x BDP the RTT is
roughly *half* the Cubic value, because BBR's 2xBDP inflight cap limits
queue occupancy.
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.analysis.render import render_table
from repro.experiments.conditions import CAPACITIES, CCAS, QUEUE_MULTS, SYSTEM_NAMES
from repro.report import aggregate_results


def _build_table(results):
    # Contended conditions pool RTT over the contention window.
    report = aggregate_results(results, keep_bands=False)
    cells = {}
    for capacity in CAPACITIES:
        for queue in QUEUE_MULTS:
            for system in SYSTEM_NAMES:
                for cca in CCAS:
                    condition = report.get(system, cca, capacity, queue)
                    mean, std = condition.rtt_s.mean_std()
                    row = f"{capacity / 1e6:.0f} Mb/s"
                    col = f"{system[:4]} {queue:g}x {cca}"
                    cells[(row, col)] = (mean * 1e3, std * 1e3)
    return cells


def test_table4(benchmark, contended_results):
    cells = benchmark(_build_table, contended_results)
    cols = [
        f"{system[:4]} {queue:g}x {cca}"
        for queue in sorted(QUEUE_MULTS)
        for system in SYSTEM_NAMES
        for cca in CCAS
    ]
    rows = [f"{c / 1e6:.0f} Mb/s" for c in sorted(CAPACITIES)]
    text = render_table(
        "Table 4: round-trip time (ms) with a competing TCP flow",
        rows,
        cols,
        cells,
    )
    write_artifact("table4_rtt_competing.txt", text)

    def cell(capacity, system, queue, cca):
        return cells[(f"{capacity / 1e6:.0f} Mb/s", f"{system[:4]} {queue:g}x {cca}")][0]

    for capacity in CAPACITIES:
        for system in SYSTEM_NAMES:
            # Cubic fills the buffer: RTT tracks the queue limit.
            assert 16.0 < cell(capacity, system, 0.5, "cubic") < 26.0
            assert 30.0 < cell(capacity, system, 2.0, "cubic") < 55.0
            assert 85.0 < cell(capacity, system, 7.0, "cubic") < 135.0
            # BBR's inflight cap roughly halves the 7x-BDP delay.
            ratio = cell(capacity, system, 7.0, "bbr") / cell(capacity, system, 7.0, "cubic")
            assert ratio < 0.85, (capacity, system, ratio)

    # Averaged over everything, the BBR/Cubic 7x ratio is near one half.
    ratios = [
        cell(capacity, system, 7.0, "bbr") / cell(capacity, system, 7.0, "cubic")
        for capacity in CAPACITIES
        for system in SYSTEM_NAMES
    ]
    assert 0.3 < float(np.mean(ratios)) < 0.8
