"""Table 1: game-system bitrates without capacity constraints.

Paper values (Mb/s): Stadia 27.5 (2.3), GeForce 24.5 (1.8),
Luna 23.7 (0.9).  Acceptance: the ordering Stadia > GeForce > Luna and
rates in the right neighbourhood; Luna has the smallest variability.
"""

from benchmarks.conftest import write_artifact
from repro.analysis.render import render_table
from repro.experiments.conditions import SYSTEM_NAMES
from repro.report import aggregate_results

PAPER_VALUES = {"stadia": 27.5, "geforce": 24.5, "luna": 23.7}


def _build_table(baseline_results):
    report = aggregate_results(baseline_results, keep_bands=False)
    cells = {}
    for system in SYSTEM_NAMES:
        mean, std = report.get(system, None, 1e9, 2.0).baseline_bps.mean_std()
        cells[(system, "Bitrate (Mb/s)")] = (mean / 1e6, std / 1e6)
    return cells


def test_table1(benchmark, baseline_results):
    cells = benchmark(_build_table, baseline_results)
    text = render_table(
        "Table 1: game system bitrates without capacity constraints or "
        "competing traffic",
        list(SYSTEM_NAMES),
        ["Bitrate (Mb/s)"],
        cells,
    )
    write_artifact("table1_baseline_bitrates.txt", text)

    means = {s: cells[(s, "Bitrate (Mb/s)")][0] for s in SYSTEM_NAMES}
    # Ordering matches the paper.
    assert means["stadia"] > means["geforce"] > means["luna"]
    # Each system lands near its paper value (ladder tops are calibrated).
    for system, paper in PAPER_VALUES.items():
        assert abs(means[system] - paper) < 0.15 * paper, (
            f"{system}: {means[system]:.1f} vs paper {paper}"
        )
