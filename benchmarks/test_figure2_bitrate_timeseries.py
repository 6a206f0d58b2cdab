"""Figure 2: game bitrate vs time at 25 Mb/s, one line per queue size.

Six panels (3 systems x {Cubic, BBR}); an iperf flow runs for the
middle third of each trace.  Acceptance criteria (paper Section 4.1):

- every system is near the capacity limit before the competitor starts;
- bitrates drop when the competitor arrives and recover after it stops;
- GeForce is clearly below the fair share during contention while
  Stadia and Luna (vs Cubic) are near or above it;
- vs Cubic, larger queues leave Stadia with less bitrate than small
  queues.
"""

import numpy as np

from benchmarks.conftest import FIGURE2_CAPACITY, write_artifact
from repro.analysis.render import render_series
from repro.experiments.conditions import CCAS, QUEUE_MULTS, SYSTEM_NAMES
from repro.report import aggregate_results


def _panel(report, system, cca):
    """Collect one panel: a band per queue size."""
    return {
        f"{queue:g}x BDP":
            report.get(system, cca, FIGURE2_CAPACITY, queue).game_band.band()
        for queue in sorted(QUEUE_MULTS)
    }


def _build_figure(results):
    report = aggregate_results(results)
    return {
        (system, cca): _panel(report, system, cca)
        for cca in CCAS
        for system in SYSTEM_NAMES
    }


def test_figure2(benchmark, contended_results, timeline):
    panels = benchmark(_build_figure, contended_results)

    blocks = []
    for (system, cca), bands in panels.items():
        series = {label: band.mean for label, band in bands.items()}
        times = next(iter(bands.values())).times
        blocks.append(
            render_series(
                f"Figure 2: {system} vs TCP {cca} @ 25 Mb/s "
                f"(iperf {timeline.iperf_start:.0f}-{timeline.iperf_stop:.0f}s)",
                times,
                series,
                vmax=FIGURE2_CAPACITY,
            )
        )
    write_artifact("figure2_bitrate_timeseries.txt", "\n\n".join(blocks))

    base_lo, base_hi = timeline.baseline_window
    adj_lo, adj_hi = timeline.adjusted_window
    fair_share = FIGURE2_CAPACITY / 2

    for (system, cca), bands in panels.items():
        for label, band in bands.items():
            before = band.mean_over(base_lo, base_hi)
            during = band.mean_over(adj_lo, adj_hi)
            tail = band.mean_over(timeline.end - 10 * timeline.scale, timeline.end)
            # Near capacity before the competitor arrives.
            assert before > 0.75 * FIGURE2_CAPACITY, (system, cca, label, before)
            # Visible response to the competitor (Stadia at the 0.5x
            # queue barely dips -- the paper's "never responds" case).
            assert during < 0.97 * before, (system, cca, label)
            # Recovery under way (or complete) by the end of the trace.
            assert tail > during, (system, cca, label)

    # GeForce defers: below fair share during contention, both CCAs.
    for cca in CCAS:
        for label, band in panels[("geforce", cca)].items():
            assert band.mean_over(adj_lo, adj_hi) < fair_share

    # Stadia vs Cubic: more bitrate with the small queue than the bloated one.
    stadia = panels[("stadia", "cubic")]
    assert (
        stadia["0.5x BDP"].mean_over(adj_lo, adj_hi)
        > stadia["7x BDP"].mean_over(adj_lo, adj_hi)
    )

    # Luna vs Cubic stays near the fair share at the typical queue.
    luna_mid = panels[("luna", "cubic")]["2x BDP"].mean_over(adj_lo, adj_hi)
    assert 0.5 * fair_share < luna_mid < 1.7 * fair_share
