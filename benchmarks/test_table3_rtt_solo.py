"""Table 3: round-trip time (ms) without a competing TCP flow.

Paper: ~16-17 ms for 0.5x-BDP queues across systems; modest growth
(~25% for Stadia/GeForce) for larger queues; all far below the queue
limits because the systems avoid saturating the path until loss.
"""

from benchmarks.conftest import write_artifact
from repro.analysis.render import render_table
from repro.experiments.conditions import CAPACITIES, QUEUE_MULTS, SYSTEM_NAMES
from repro.report import aggregate_results


def _build_table(results):
    # Solo conditions pool RTT over the solo window (Table 3's).
    report = aggregate_results(results, keep_bands=False)
    cells = {}
    for capacity in CAPACITIES:
        for queue in QUEUE_MULTS:
            for system in SYSTEM_NAMES:
                condition = report.get(system, None, capacity, queue)
                mean, std = condition.rtt_s.mean_std()
                row = f"{capacity / 1e6:.0f} Mb/s"
                col = f"{system} {queue:g}x"
                cells[(row, col)] = (mean * 1e3, std * 1e3)
    return cells


def test_table3(benchmark, solo_results):
    cells = benchmark(_build_table, solo_results)
    cols = [
        f"{system} {queue:g}x"
        for queue in sorted(QUEUE_MULTS)
        for system in SYSTEM_NAMES
    ]
    rows = [f"{c / 1e6:.0f} Mb/s" for c in sorted(CAPACITIES)]
    text = render_table(
        "Table 3: round-trip time (ms) without a competing TCP flow",
        rows,
        cols,
        cells,
    )
    write_artifact("table3_rtt_solo.txt", text)

    for (row, col), (mean, std) in cells.items():
        # All solo RTTs stay near the 16.5 ms base: no self-induced
        # standing queues (the paper's central Table 3 observation).
        assert 15.5 < mean < 30.0, (row, col, mean)

    # Small queues sit essentially at the base RTT.
    for capacity in CAPACITIES:
        row = f"{capacity / 1e6:.0f} Mb/s"
        for system in SYSTEM_NAMES:
            mean, _ = cells[(row, f"{system} 0.5x")]
            assert mean < 21.0, (row, system, mean)
