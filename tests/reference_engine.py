"""A slow, plain re-implementation of ``init_run`` + ``run_to_completion``,
and the decision rules it is built from: the oracle of the differential test.

It shares no code with the package. It imports nothing from ``fabflock``
(``test_imports.py`` checks that it imports only the standard library),
reads the scenario records by attribute, and keeps no index, bucket or
lazily built state: every decision scans the queues as they are. Each busy
machine counts down once per tick, and so does the waiting timer of each
idle batch machine with queued lots. Every draw goes through
``Random.shuffle`` and ``Random.choice``, the latter never over a single
element, where the stdlib would draw a bit and the package draws none.

The rule functions read duck-typed queues: ``.lots`` (the lots of a
single-step queue, head first), ``.batches`` (the batches of a batch queue,
each with ``.lot_type`` and ``.lots``) and, for the distances, the
machine's ``.current_batch``. The unit tests call the same functions on the
package's queues, so each rule has one reference definition. A rule given a
``cases`` Counter tallies the decision case it met, so a test can see that
a run exercised every case without wrapping package code.
"""

import random
from collections import Counter
from types import SimpleNamespace


def reference_pick(items, rng):
    """One of ``items``, uniform; a single element draws nothing."""
    return items[0] if len(items) == 1 else rng.choice(items)


def queue_length(queue):
    """Lots queued, loose or batched."""
    return len(queue.lots) + sum(len(b.lots) for b in queue.batches)


def reference_shortest_queue(item, queues, rng):
    """The baseline's queue choice: the shortest queue, ties uniform."""
    lens = [queue_length(q) for q in queues]
    shortest = min(lens)
    return reference_pick([i for i, n in enumerate(lens) if n == shortest], rng)


def reference_separation(item, queues, rng, cases=None):
    """Flocking's queue choice: the queues holding the fewest lots of the
    lot's own type, then the shortest of those, ties uniform. The cases are
    "empty queue" (some queue is empty), "unqueued type" (no queue holds
    the type) and "walk" (neither)."""
    counts = [sum(l.lot_type == item.lot_type for l in q.lots) for q in queues]
    least = min(counts)
    candidates = [i for i, c in enumerate(counts) if c == least]
    lens = [queue_length(q) for q in queues]
    shortest = min(lens[i] for i in candidates)
    if cases is not None:
        cases["empty queue" if 0 in lens else "walk" if any(counts) else "unqueued type"] += 1
    return reference_pick([i for i in candidates if lens[i] == shortest], rng)


def reference_choose_batch(item, queues, batch_size, rng, cases=None):
    """The paper's batch-queue choice as written: (machine index, "join" |
    "new"). Top up the partial batch of the lot's type that misses the
    fewest lots anywhere in the workcenter, ties uniform; with none, open a
    new batch at the shortest queue. The case is the number of partial
    batches of the type, "<n> partial batches"."""
    missing = [(i, batch_size - len(b.lots)) for i, q in enumerate(queues)
               for b in q.batches if b.lot_type == item.lot_type and len(b.lots) < batch_size]
    if cases is not None:
        cases[f"{len(missing)} partial batches"] += 1
    if missing:
        fewest = min(m for _, m in missing)
        return reference_pick([i for i, m in missing if m == fewest], rng), "join"
    return reference_shortest_queue(item, queues, rng), "new"


def reference_take_batch(batches, batch_size, expired, rng):
    """The batch an idle batch machine starts, or None: a full batch, ties
    uniform; once the waiting timer expired, the fullest batch, ties
    uniform."""
    fulls = [b for b in batches if len(b.lots) == batch_size]
    if fulls:
        return reference_pick(fulls, rng)
    if not expired or not batches:
        return None
    fullest = max(len(b.lots) for b in batches)
    return reference_pick([b for b in batches if len(b.lots) == fullest], rng)


def same_type_distances(machines, own_index, window_len):
    """Lot type -> the distance of every other machine that shows the type,
    in machine order: 0 while it processes the type, otherwise the 1-based
    position of the type's first lot among its first ``window_len`` queued
    lots. ``machines`` have ``.current_batch`` and ``.lots``."""
    distances = {}
    for other, machine in enumerate(machines):
        if other == own_index:
            continue
        processing = machine.current_batch[0].lot_type if machine.current_batch else None
        if processing is not None:
            distances.setdefault(processing, []).append(0)
        seen = {processing}
        for pos, item in enumerate(machine.lots[:window_len], start=1):
            if item.lot_type not in seen:
                seen.add(item.lot_type)
                distances.setdefault(item.lot_type, []).append(pos)
    return distances


def compute_pull(own_distance, other_distances):
    """Pull in {-1, 0, +1}: -1 when the lot sits farther out than the average
    same-type distance at the other machines, +1 when closer, 0 on a tie or
    when no other machine contributes. Compared in integers."""
    scaled = own_distance * len(other_distances)
    total = sum(other_distances)
    return -1 if scaled > total else 1 if scaled < total else 0


def reference_reshuffle(lots, machines, own_index, rng, window_len, cases=None):
    """The FLSQ reshuffle of ``lots``, the queue of ``machines[own_index]``,
    in place: every lot of the first ``window_len`` gets its pull against
    the other machines, then the window is shuffled into a visit order, and
    each visited lot with a pull moves one place that way from where it is
    then, unless that leaves the window. A window of one lot draws nothing.
    The case is "reshuffle"."""
    w = min(window_len, len(lots))
    if w <= 1:
        return
    if cases is not None:
        cases["reshuffle"] += 1
    distances = same_type_distances(machines, own_index, window_len)
    pulls = {item.id: compute_pull(pos, distances.get(item.lot_type, []))
             for pos, item in enumerate(lots[:w], start=1)}
    order = lots[:w]
    rng.shuffle(order)
    for item in order:
        i = lots.index(item)
        j = min(max(i + pulls[item.id], 0), w - 1)
        if j != i:
            lots.pop(i)
            lots.insert(j, item)


class Lot:
    def __init__(self, id, lot_type):
        self.id = id
        self.lot_type = lot_type
        self.step = 0
        self.enqueued = 0
        self.waited = 0
        self.finish = None


class Batch:
    def __init__(self, lot_type, lots):
        self.lot_type = lot_type
        self.lots = lots


class Machine:
    """A machine and its queue; ``timer`` is None while not armed, else the
    ticks left until the waiting timer expires."""

    def __init__(self, mtype, index):
        self.mtype = mtype
        self.index = index
        self.label = f"m{mtype.id}.{index}"
        self.batching = mtype.kind.value == "batch"
        self.lots = []
        self.batches = []
        self.current_batch = []
        self.busy = 0
        self.timer = None
        self.starts = 0


class Livelock(Exception):
    """No lot finished within the horizon."""


def run_reference(scenario, policy, seed, flsq_len=5, horizon_factor=100):
    """One run of ``scenario`` under ``policy`` ("baseline" or "flocking",
    whose reshuffle window is ``flsq_len``) from ``seed``, to completion.
    Returns what it ends with: per lot (id, lot type, finish tick, queue
    ticks, raw process ticks) in id order as ``lots``, ``busy_ticks`` per
    machine label, ``makespan``, the final ``clock``, the generator's
    ``rng_state`` and the decision ``cases`` met. Raises Livelock, as the
    engine raises SimulationAbort, once more than ``horizon_factor`` times
    the lots' total work passes without a finish."""
    assert policy in ("baseline", "flocking"), policy
    rng = random.Random(seed)
    cases = Counter()
    groups = {}
    machines = []
    for mtype in sorted(scenario.machine_types, key=lambda mt: mt.id):
        groups[mtype.id] = [Machine(mtype, i) for i in range(mtype.machine_count)]
        machines += groups[mtype.id]
    recipes = {spec.id: spec.recipe for spec in scenario.lot_specs}
    rpt = {mt.id: mt.raw_process_ticks for mt in scenario.machine_types}
    work = {t: sum(rpt[m] for m in recipe) for t, recipe in recipes.items()}
    types = [spec.id for spec in sorted(scenario.lot_specs, key=lambda s: s.id)
             for _ in range(spec.count)]
    lots = [Lot(i, t) for i, t in enumerate(types)]
    done = 0
    last_finish = 0

    def dispatch(arriving, clock):
        nonlocal done, last_finish
        for item in arriving:
            recipe = recipes[item.lot_type]
            if item.step == len(recipe):
                item.finish = last_finish = clock
                done += 1
                continue
            group = groups[recipe[item.step]]
            mtype = group[0].mtype
            if group[0].batching:
                target = group[reference_choose_batch(
                    item, group, mtype.batch_size, rng, cases)[0]]
                if not queue_length(target):
                    target.timer = mtype.wt_ticks
                partial = [b for b in target.batches
                           if b.lot_type == item.lot_type and len(b.lots) < mtype.batch_size]
                if partial:
                    partial[0].lots.append(item)
                else:
                    target.batches.append(Batch(item.lot_type, [item]))
            else:
                if policy == "flocking":
                    target = group[reference_separation(item, group, rng, cases)]
                else:
                    target = group[reference_shortest_queue(item, group, rng)]
                target.lots.append(item)
            item.enqueued = clock

    order = list(lots)
    rng.shuffle(order)
    dispatch(order, 0)
    clock = 0
    horizon = max(1, horizon_factor * sum(work[item.lot_type] for item in lots))
    while done < len(lots):
        if clock - last_finish > horizon:
            raise Livelock(f"no lot finished from tick {last_finish} to {clock}")
        # 1: countdown and release
        released = []
        for m in machines:
            if m.current_batch:
                m.busy -= 1
                if not m.busy:
                    for item in m.current_batch:
                        item.step += 1
                    released += m.current_batch
                    m.current_batch = []
                    if m.batching and queue_length(m):
                        m.timer = m.mtype.wt_ticks
        # 2: released lots finish or queue, in shuffled order
        rng.shuffle(released)
        dispatch(released, clock)
        # 3: idle machines, in shuffled order, try to start
        idle = [m for m in machines if not m.current_batch]
        rng.shuffle(idle)
        for m in idle:
            if m.batching:
                batch = reference_take_batch(m.batches, m.mtype.batch_size, m.timer == 0, rng)
                if batch is None:
                    continue
                m.batches.remove(batch)
                started = batch.lots
            elif m.lots:
                if policy == "flocking":
                    reference_reshuffle(m.lots, groups[m.mtype.id], m.index, rng,
                                        flsq_len, cases)
                started = [m.lots.pop(0)]
            else:
                continue
            for item in started:
                item.waited += clock - item.enqueued
            m.current_batch = started
            m.busy = m.mtype.raw_process_ticks
            m.starts += 1
            m.timer = None
        # 4: the waiting timers of idle batch machines with queued lots run
        for m in machines:
            if m.batching and not m.current_batch and m.batches and m.timer:
                m.timer -= 1
        # 5: the clock
        clock += 1

    return SimpleNamespace(
        lots=[(item.id, item.lot_type, item.finish, item.waited, work[item.lot_type])
              for item in lots],
        busy_ticks={m.label: m.starts * m.mtype.raw_process_ticks for m in machines},
        makespan=last_finish, clock=clock, rng_state=rng.getstate(), cases=cases)
