"""Replay a few ten-fold-fab replications against the benchmark's pins.

The output fingerprint covers the small fab only, where no workcenter has
more than six machines. ``bench/pins.json`` also pins the digest (summary
statistics, final tick and generator state) of replications on the
ten-fold fab, whose first workcenter has 50 machines; replaying a few of
them here catches a divergence there without a benchmark run. The scenario
and the digest come from ``bench/run.py``; nothing under ``bench/`` is
written.

These are pins: they say a run did not change, not that it was right.
``test_differential.py`` checks whole runs against an independent
re-implementation instead, on the two-fold fab, where the reference's
scans stay fast; the pins carry that check to ten-fold size.
"""

import pytest

from fabflock.cli import make_policy
from fabflock.engine import init_run, run_to_completion
from fabflock.scenario import parse_scenario


@pytest.mark.parametrize("policy, seed", [("flocking", 1), ("flocking", 2), ("baseline", 1)])
def test_ten_fold_fab_replication_matches_its_pin(bench_run, policy, seed):
    sc = parse_scenario(bench_run.fab_text(10))
    state = init_run(sc, make_policy(policy), seed)
    result = run_to_completion(state)
    pinned = bench_run.load_pins()["replications"][f"{sc.name}/{policy}/{seed}"]
    assert bench_run.replication_digest(state, result) == pinned
