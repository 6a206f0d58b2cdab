"""Ablation: harm-based analysis (Ware et al., HotNets 2019).

The paper's future work suggests replacing throughput fairness with
*harm*: how much a competitor degrades the game stream relative to its
solo performance.  Computed from the campaigns already run: harm to the
game's bitrate at 25 Mb/s per queue size and competitor CCA.
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.analysis.fairness import harm
from repro.analysis.render import render_table
from repro.experiments.conditions import QUEUE_MULTS, SYSTEM_NAMES
from repro.report import aggregate_results

_CAPACITY = 25e6


def _build(contended, solo):
    baselines = aggregate_results(solo, keep_bands=False)
    cells = {}
    for system in SYSTEM_NAMES:
        for queue in QUEUE_MULTS:
            solo_bps = baselines.get(system, None, _CAPACITY, queue).baseline_bps.mean
            for cca in ("cubic", "bbr"):
                contested = float(np.mean([
                    r.fairness_game_bps for r in contended
                    if (r.system, r.cca, r.capacity_bps, r.queue_mult)
                    == (system, cca, _CAPACITY, queue)
                ]))
                cells[(system, f"{queue:g}x {cca}")] = (
                    harm(solo_bps, contested),
                    0.0,
                )
    return cells


def test_harm_ablation(benchmark, contended_results, solo_results):
    cells = benchmark(_build, contended_results, solo_results)
    cols = [
        f"{q:g}x {cca}" for q in sorted(QUEUE_MULTS) for cca in ("cubic", "bbr")
    ]
    text = render_table(
        "Ablation: harm to game bitrate (0 = none, 1 = total) at 25 Mb/s",
        list(SYSTEM_NAMES),
        cols,
        cells,
        digits=2,
    )
    write_artifact("ablation_harm.txt", text)

    values = {k: v[0] for k, v in cells.items()}
    # Harm is a well-formed fraction everywhere.
    assert all(0.0 <= v <= 1.0 for v in values.values())
    # A fair split of a saturated link implies roughly half-harm; the
    # deferential GeForce suffers more harm than the aggressive Stadia
    # against Cubic.
    geforce = np.mean([values[("geforce", f"{q:g}x cubic")] for q in QUEUE_MULTS])
    stadia = np.mean([values[("stadia", f"{q:g}x cubic")] for q in QUEUE_MULTS])
    assert geforce > stadia
    # Luna is harmed more by BBR than by Cubic at small/typical queues
    # (the bloated-queue cells are high-variance in our reproduction,
    # see EXPERIMENTS.md deviations).
    small_typical = [q for q in QUEUE_MULTS if q < 7.0]
    luna_bbr = np.mean([values[("luna", f"{q:g}x bbr")] for q in small_typical])
    luna_cubic = np.mean([values[("luna", f"{q:g}x cubic")] for q in small_typical])
    assert luna_bbr > luna_cubic
