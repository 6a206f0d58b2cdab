"""Loss-rate summary (Section 4.3 claims).

Paper: media loss is near zero without a competing flow; with one it
stays low, slightly higher for small queues and when the competitor is
BBR (which does not treat loss as congestion).
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.analysis.render import render_table
from repro.experiments.conditions import CAPACITIES, CCAS, QUEUE_MULTS, SYSTEM_NAMES
from repro.report import aggregate_results


def _build_tables(contended_results, solo_results):
    contended = aggregate_results(contended_results, keep_bands=False)
    solo = aggregate_results(solo_results, keep_bands=False)
    competing = {}
    alone = {}
    for capacity in CAPACITIES:
        row = f"{capacity / 1e6:.0f} Mb/s"
        for queue in QUEUE_MULTS:
            for system in SYSTEM_NAMES:
                alone[(row, f"{system[:4]} {queue:g}x")] = solo.get(
                    system, None, capacity, queue
                ).loss_rate.mean_std()
                for cca in CCAS:
                    competing[(row, f"{system[:4]} {queue:g}x {cca}")] = contended.get(
                        system, cca, capacity, queue
                    ).loss_rate.mean_std()
    return alone, competing


def test_loss_rates(benchmark, contended_results, solo_results):
    alone, competing = benchmark(_build_tables, contended_results, solo_results)

    rows = [f"{c / 1e6:.0f} Mb/s" for c in sorted(CAPACITIES)]
    solo_cols = [
        f"{s[:4]} {q:g}x" for q in sorted(QUEUE_MULTS) for s in SYSTEM_NAMES
    ]
    comp_cols = [
        f"{s[:4]} {q:g}x {c}"
        for q in sorted(QUEUE_MULTS)
        for s in SYSTEM_NAMES
        for c in CCAS
    ]
    text = "\n\n".join(
        [
            render_table("Game-stream loss rate, no competing flow", rows,
                         solo_cols, alone, digits=4),
            render_table("Game-stream loss rate, with competing flow", rows,
                         comp_cols, competing, digits=4),
        ]
    )
    write_artifact("loss_rates.txt", text)

    # Solo: loss near zero everywhere.
    assert max(v[0] for v in alone.values()) < 0.01

    # Competing: low overall (paper: well under 1%; we allow small-queue
    # BBR cells to run a little hotter -- see EXPERIMENTS.md).
    values = {k: v[0] for k, v in competing.items()}
    typical = [v for k, v in values.items() if "0.5x" not in k[1]]
    assert float(np.mean(typical)) < 0.01

    # Small queues lose more than large queues.
    small = np.mean([v for k, v in values.items() if "0.5x" in k[1]])
    large = np.mean([v for k, v in values.items() if "7x" in k[1]])
    assert small > large

    # BBR induces at least as much loss as Cubic on average.
    bbr = np.mean([v for k, v in values.items() if k[1].endswith("bbr")])
    cubic = np.mean([v for k, v in values.items() if k[1].endswith("cubic")])
    assert bbr >= cubic * 0.8
