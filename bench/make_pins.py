#!/usr/bin/env python3
"""Write ``pins.json``, the reference outputs the benchmark checks against.

    python3 bench/make_pins.py

Run it only on a commit whose outputs are known to be right. A change that
alters the order in which random numbers are drawn changes every digest; the
change must say so and why, and re-pin once.
"""

from __future__ import annotations

import json

import run
from run import cli, engine, scenario

#: (fab scale, policy, seeds) pinned: enough for runs started at small seeds;
#: repeats within a run check the seeds beyond them.
PINNED = ((1, "baseline", range(1, 101)), (1, "flocking", range(1, 101)),
          (10, "baseline", range(1, 81)), (10, "flocking", range(1, 31)))


def main() -> None:
    pins: dict[str, dict] = {"csv": {}, "replications": {}}
    small = scenario.parse_scenario(run.fab_text(1))
    out = run.WORK / "pins"
    cli.run_experiment(small, ["baseline", "flocking"], runs=50, base_seed=1, out_dir=out)
    pins["csv"]["smallfab/baseline+flocking/runs50/seed1"] = \
        run.csv_digests(out, ("baseline", "flocking"))
    for scale, policy, seeds in PINNED:
        sc = scenario.parse_scenario(run.fab_text(scale))
        for seed in seeds:
            state = engine.init_run(sc, cli.make_policy(policy), seed)
            result = engine.run_to_completion(state)
            pins["replications"][f"{sc.name}/{policy}/{seed}"] = \
                run.replication_digest(state, result)
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n",
                                        encoding="utf-8")


if __name__ == "__main__":
    main()
