"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest report.
"""

import csv
import hashlib
import random
import time

import pytest
from scipy import stats

from fabflock import baseline, cli
from fabflock.baseline import BaselinePolicy
from fabflock.engine import init_run, run_to_completion
from fabflock.flocking import FlockingPolicy, first_same_type_distance, pull_from_totals
from fabflock.metrics import summarize
from fabflock.model import MachineKind, MachineType
from fabflock.scenario import LotSpec, Scenario, build_small_fab

from support import (add_batch, checked_run, fill_queue, lot, make_batch_wc, make_single_wc,
                     random_scenario, set_processing)
from support import result_json as _result_json

RUNS = 50
BASE_SEED = 1


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def small_fab_experiment(tmp_path_factory):
    """The full 2 x 50-run experiment, shared by criteria 1, 2, 3, and 8."""
    out = tmp_path_factory.mktemp("smallfab")
    started = time.perf_counter()
    results = cli.run_experiment(build_small_fab(), ["baseline", "flocking"],
                                 runs=RUNS, base_seed=BASE_SEED, out_dir=out)
    elapsed = time.perf_counter() - started
    return results, out, elapsed


def mean(values):
    return sum(values) / len(values)


def test_criterion_1_baseline_reproduces_reference_table(small_fab_experiment):
    results, _, elapsed = small_fab_experiment
    sums = [summarize(r) for r in results["baseline"]]
    ff = mean([s.flow_factor for s in sums])
    ms = mean([s.makespan for s in sums])
    utl = mean([s.utilization for s in sums])
    trd = mean([s.tardiness for s in sums])
    ok = (2.71 <= ff <= 3.31 and 292 <= ms <= 357 and 0.62 <= utl <= 0.76
          and 152 <= trd <= 186 and elapsed < 10.0)
    report(1, ok, f"FF={ff:.3f} MS={ms:.2f} UTL={utl:.4f} TRD={trd:.2f} "
                  f"elapsed={elapsed:.2f}s")


def test_criterion_2_flocking_stays_within_5_percent(small_fab_experiment):
    results, _, _ = small_fab_experiment
    base = [summarize(r) for r in results["baseline"]]
    flock = [summarize(r) for r in results["flocking"]]
    ff_b, ff_f = mean([s.flow_factor for s in base]), mean([s.flow_factor for s in flock])
    ms_b, ms_f = mean([s.makespan for s in base]), mean([s.makespan for s in flock])
    ff_delta = abs(ff_f - ff_b) / ff_b
    ms_delta = abs(ms_f - ms_b) / ms_b
    ok = ff_delta <= 0.05 and ms_delta <= 0.05
    report(2, ok, f"|dFF|={100 * ff_delta:.2f}% |dMS|={100 * ms_delta:.2f}%")


def test_criterion_3_flow_factor_tardiness_identity(small_fab_experiment):
    results, _, _ = small_fab_experiment
    worst = 0.0
    for runs in results.values():
        for result in runs:
            s = summarize(result)
            implied = (s.tardiness * 0.1 + 8.4) / 8.4
            worst = max(worst, abs(s.flow_factor - implied))
    ok = worst <= 1e-9
    report(3, ok, f"max |FF - (TRD*0.1+8.4)/8.4| = {worst:.2e} over {2 * RUNS} runs")


def test_criterion_4_worked_reshuffle_example():
    # Four single-step machines. The asking machine 0 queues an orange lot at
    # position 1 and a blue lot at position 2. Machines 1 and 2 process blue
    # and queue orange at position 2; machine 3 queues blue at its head and
    # shows no orange in its window.
    ORANGE, BLUE, GREEN = 0, 1, 2
    wc = make_single_wc(4)
    fill_queue(wc, 0, [ORANGE, BLUE])
    set_processing(wc, 1, BLUE)
    fill_queue(wc, 1, [GREEN, ORANGE])
    set_processing(wc, 2, BLUE)
    fill_queue(wc, 2, [GREEN, ORANGE])
    fill_queue(wc, 3, [BLUE, GREEN])

    orange_distances = [d for i in (1, 2, 3)
                        if (d := first_same_type_distance(ORANGE, wc, i, 5)) is not None]
    blue_distances = [d for i in (1, 2, 3)
                      if (d := first_same_type_distance(BLUE, wc, i, 5)) is not None]
    orange_pull = pull_from_totals(1, len(orange_distances), sum(orange_distances))
    blue_pull = pull_from_totals(2, len(blue_distances), sum(blue_distances))
    ok = (sorted(orange_distances) == [2, 2] and orange_pull == 1
          and sorted(blue_distances) == [0, 0, 1] and blue_pull == -1)
    report(4, ok, f"orange: d=1 vs {orange_distances} -> {orange_pull:+d}; "
                  f"blue: d=2 vs {blue_distances} -> {blue_pull:+d}")


def _random_batch_queue(rng, bs=4):
    wc = make_batch_wc(1, bs=bs)
    queue = wc.queues[0]
    batches = []
    for lot_type in range(4):
        for _ in range(rng.randint(0, 2)):
            batches.append([lot(lot_type) for _ in range(bs)])
        if rng.random() < 0.6:
            size = rng.randint(1, bs - 1)
            batches.append([lot(lot_type) for _ in range(size)])
    rng.shuffle(batches)
    for lots in batches:
        for item in lots:
            queue.add_lot(item)
    return wc.machines[0], queue


def test_criterion_5_batch_rules_property_and_tie_uniformity():
    rng = random.Random(20240)
    bs = 4
    for _ in range(300):
        machine, queue = _random_batch_queue(rng, bs)
        fulls = set(id(b) for b in queue.full_batches())
        for expired in (False, True):
            taken = baseline.take_batch(machine, queue, rng, expired)
            if fulls:
                assert taken is not None and id(taken) in fulls, "full batch not preferred"
            elif not queue.batches:
                assert taken is None, "took from an empty queue"
            elif not expired:
                assert taken is None, "started a partial before expiry"
            else:
                fullest = max(len(b.lots) for b in queue.batches)
                assert taken is not None and len(taken.lots) == fullest, \
                    "expiry did not pick the fullest partial"

    # Tie uniformity: three equally filled partials, 10000 expired draws.
    draw_rng = random.Random(77)
    counts = {0: 0, 1: 0, 2: 0}
    for _ in range(10_000):
        wc = make_batch_wc(1, bs=bs)
        for lot_type in range(3):
            add_batch(wc, 0, lot_type, 2)
        taken = baseline.take_batch(wc.machines[0], wc.queues[0], draw_rng, True)
        counts[taken.lot_type] += 1
    chi = stats.chisquare(list(counts.values()))
    ok = chi.pvalue > 0.001
    report(5, ok, f"rules hold on 300 random queues; tie counts {list(counts.values())} "
                  f"chi2 p={chi.pvalue:.3f}")


class _PrefixCheckingFlocking(FlockingPolicy):
    """Asserts the reshuffle window stays a permuted prefix on every take."""

    def take_single(self, machine, queue, wc, rng):
        before = list(queue.lots)
        w = min(self.flsq_len, len(before))
        super().take_single(machine, queue, wc, rng)
        after = queue.lots
        assert sorted(id(x) for x in after[:w]) == sorted(id(x) for x in before[:w])
        assert all(a is b for a, b in zip(after[w:], before[w:]))


def test_criterion_6_invariants_on_randomized_scenarios():
    gen = random.Random(1234)
    for i in range(200):
        scenario = random_scenario(gen)
        seed = 1000 + i
        checked_run(scenario, BaselinePolicy(), seed, fifo_check=True)
        checked_run(scenario, _PrefixCheckingFlocking(), seed, fifo_check=False)
        for policy_cls in (BaselinePolicy, FlockingPolicy):
            a = run_to_completion(init_run(scenario, policy_cls(), seed))
            b = run_to_completion(init_run(scenario, policy_cls(), seed))
            assert _result_json(a) == _result_json(b), "seed determinism broken"
    report(6, True, "200 scenarios x 2 policies: conservation, batch purity, "
                    "size bounds, FIFO, window prefix, wait+work identity, determinism")


def _enumerate_micro_makespans(n_lots=4, n_machines=2, rpt=2):
    """Exhaustive shortest-queue placements, makespan as max machine load.

    With one workcenter and all lots present from tick 0, a machine is never
    idle while its queue is nonempty, so the makespan is the largest number of
    assigned lots times the process time. Lots are interchangeable here, so
    enumerating every tie-break choice covers every dispatch order.
    """
    outcomes = set()

    def place(remaining, loads):
        if remaining == 0:
            outcomes.add(max(loads) * rpt)
            return
        shortest = min(loads)
        for i, load in enumerate(loads):
            if load == shortest:
                nxt = list(loads)
                nxt[i] += 1
                place(remaining - 1, nxt)

    place(n_lots, [0] * n_machines)
    return outcomes


def test_criterion_7_micro_scenario_matches_enumeration_oracle():
    oracle = _enumerate_micro_makespans(n_lots=4, n_machines=2, rpt=2)
    scenario = Scenario(
        "micro", 0.1,
        (MachineType(0, MachineKind.SINGLE_STEP, raw_process_ticks=2, machine_count=2),),
        (LotSpec(0, 4, (0,)),))
    engine_spans = {run_to_completion(init_run(scenario, BaselinePolicy(), s)).makespan
                    for s in range(1, 21)}
    ok = engine_spans <= oracle and oracle == {4}
    report(7, ok, f"oracle={sorted(oracle)} engine={sorted(engine_spans)}")


def test_criterion_8_pooled_histogram_contract(small_fab_experiment):
    _, out, _ = small_fab_experiment
    checked = {}
    for name in ("baseline", "flocking"):
        with open(out / f"histogram_{name}.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        starts = [int(r["bin_start"]) for r in rows]
        total = sum(int(r["count"]) for r in rows)
        assert starts == [i * 10 for i in range(len(starts))], "bins not 10-tick aligned"
        checked[name] = total
    ok = all(total == 105 * RUNS for total in checked.values())
    report(8, ok, f"pooled counts {checked} == 105 x {RUNS}")


#: sha256 of the five CSVs the 2 x 50 small-fab experiment writes at seed 1.
#: Any change to these bytes, or to the order random numbers are drawn in,
#: is a behaviour change and must re-pin them on purpose.
FINGERPRINT = {
    "runs.csv": "3b10370c20ede7cc53c2b8190c791eb966a05f8edde98f9ef9273b838f61a4fd",
    "aggregate.csv": "58a50b48cd97978b4ed6ffce4e6fdef02d551a6a60c8c28e42f3f64e36d5df63",
    "comparison.csv": "365613dee7ec1ef3c639144367cad04f7c54c51a4401222a5ab15613e2b1e783",
    "histogram_baseline.csv": "d868832ef47103e1ed43038e8da1cf51945eeee0993d8e7fd44982fe875e508f",
    "histogram_flocking.csv": "1a4a17c0b7e4618747a6d2f83aa80f0614675180e63403639b6f0ef1b7345077",
}


def test_output_fingerprint_is_byte_identical(small_fab_experiment):
    _, out, _ = small_fab_experiment
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in FINGERPRINT}
    assert got == FINGERPRINT
