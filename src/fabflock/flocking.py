"""Flocking-inspired scheduling policy.

Lots of one type behave as a loose flock. At single-step workcenters they
spread out: an arriving lot prefers the queues holding the fewest lots of its
own type and only then the shortest of those. They cohere in time through
queue reshuffling just before a machine takes its next lot. The policy
changes single-step decisions only: the engine runs the baseline batch rules
at batch workcenters under every policy, and those already gather same-type
lots into shared batches.

Reshuffling, the take rule ``take_single``, works on the first-lots queue
(FLSQ): the first ``window_len`` positions of the taking machine's queue,
where the engine passes the policy's ``flsq_len``. Every lot in the window
compares its 1-based position against the first same-type lot at each other
machine in the workcenter, where a machine processing the type counts as
distance 0 and a machine without the type in its own window contributes
nothing. A lot farther out than the average of those distances gets a pull
of -1 (one place toward the head), a closer lot +1 (one place toward the
back), otherwise 0. Moves are applied in random visit order, so an earlier
insertion can displace a lot before its own move; the resulting fuzzy drift
is intended. Lots beyond the window never move.

The distances come from the same-type distance index of the
``model.Workcenter`` the rules receive (``Workcenter.distance_index``), so a
take costs O(window + machines changed since the last take at the
workcenter), not O(machines x window). The index keeps, per machine, its
``{lot type: distance}`` map and, per lot type, the count and sum of those
distances; it re-derives only the machines in ``index.changed``. ``index``
is the workcenter's ``model.QueueIndex``, the one object of workcenter-wide
state every queue holds as ``queue.index`` and the workcenter as
``wc.index``. Separation reads the same object: its queue-length buckets
and its per-type table of how many lots each machine queues, which the
queue mutators keep current. An arriving lot costs one dict lookup or two
and its draw while some queue of the workcenter is empty or no queue holds
its type, the common cases; otherwise O(machines in the buckets walked),
not O(machines). Only when every machine already queues the lot's type
does it also take the minimum over that type's counts. The type counts and
marks exist only once ``Workcenter.track_lot_types`` has run at the
workcenter; ``choose_single`` and ``distance_index`` call it on first use,
so a baseline run never builds them.

The marking contract, once tracking has started (which marks every
machine): whatever changes a single-step machine's queue window or
processing type adds the machine's index to ``index.changed``. ``add_lot``
and ``pop_head`` mark their queue's owner, the engine marks a machine when
it releases its lot (a start always follows the ``pop_head`` that marked
it), and ``reshuffle_flsq`` marks the machine whose window it reordered; a
reorder inside ``queue.lots`` leaves the lengths and type counts valid, so
the window is all it changes. Code that sets ``current_batch`` or reorders
``queue.lots`` outside these paths, such as a test building a state by
hand, must mark the machine itself while tracking is on;
``engine.audit_state`` fails on an unmarked machine whose entry is stale.
"""

from __future__ import annotations

import random

# choose_batch and take_batch stay imported: bench/run.py traces them under these names,
# though the engine calls them on the baseline module.
from .baseline import choose_batch, pick_uniform, shuffle, take_batch  # noqa: F401
from .model import Lot, Machine, MultiQueue, Workcenter

DEFAULT_FLSQ_LEN = 5


def choose_single(lot: Lot, wc: Workcenter, rng: random.Random) -> int:
    """Among the queues with the fewest lots of the lot's own type, take the
    shortest; remaining ties uniform.

    Two shortcuts pick without a walk. An empty queue holds no lot of any
    type, so while the index has a bucket of length 0 its machines have the
    fewest lots of the type and the shortest queues. A type missing from
    ``index.type_counts`` is queued nowhere, so every machine has the fewest
    and the ties are the lowest bucket. In both cases the walk below would
    stop at that bucket and keep all of it, so the one ``pick_uniform`` over
    it draws what the walk would.

    Otherwise one walk of the index's buckets, upward from the shortest
    length, meets the fewest-type machines shortest first and, within a
    length, in machine order; the first bucket holding any of them gives
    the ties. ``held``, the type's entry in ``index.type_counts``, lists
    exactly the machines queueing the type, so the fewest is 0 while some
    machine is missing from it, and otherwise the least count in it. The
    first call at a workcenter starts its lot-type tracking.

    The walk ends after the longest bucket. A stale ``type_counts`` that
    leaves the walk without a tie raises RuntimeError.
    """
    index = wc.index
    counts = index.type_counts
    if counts is None:
        counts = wc.track_lot_types().type_counts
    buckets = index.buckets
    if 0 in buckets:
        return pick_uniform(buckets[0], rng)
    held = counts.get(lot.lot_type)
    if held is None:
        return pick_uniform(buckets[min(buckets)], rng)
    least = 0 if len(held) < len(wc.machines) else min(held.values())
    n = min(buckets)
    top = max(buckets)
    while n <= top:
        bucket = buckets.get(n)
        if bucket is not None:
            if least:
                ties = [i for i in bucket if held[i] == least]
            else:
                ties = [i for i in bucket if i not in held]
            if ties:
                return pick_uniform(ties, rng)
        n += 1
    raise RuntimeError(
        f"workcenter {wc.mtype.id}: stale index.type_counts, no machine "
        f"queues {least} lots of type {lot.lot_type}")


def first_same_type_distance(lot_type: int, wc: Workcenter,
                             machine_index: int, window_len: int) -> int | None:
    """Distance from machine ``machine_index`` to its nearest ``lot_type`` lot.

    0 while the machine processes that type, otherwise the 1-based queue
    position of the first such lot inside the machine's window; None when the
    type is visible neither on the machine nor in the window. This is the
    per-machine rule; ``model.machine_distances`` applies it to every type
    of a machine at once.
    """
    if wc.processing_type(machine_index) == lot_type:
        return 0
    for pos, t in enumerate(wc.window_types(machine_index, window_len), start=1):
        if t == lot_type:
            return pos
    return None


def pull_from_totals(own_distance: int, count: int, total: int) -> int:
    """Pull in {-1, 0, +1} against ``count`` other machines whose distances
    sum to ``total``: -1 when the lot sits farther out than their average,
    +1 when closer, 0 on a tie. With no other machine both sides are 0, so
    the pull is 0. Exact integer comparison."""
    scaled = own_distance * count
    if scaled > total:
        return -1
    if scaled < total:
        return 1
    return 0


def apply_pulls(lots: list[Lot], pulls: dict[int, int],
                window_len: int, rng: random.Random) -> None:
    """Apply single-place moves inside the window, in random visit order.

    ``pulls`` maps lot id to a pull of -1, 0 or +1. Each visited lot with a
    pull swaps places with its neighbour on that side, from its position at
    visit time, so earlier moves can shift where later ones land; a move
    that would leave the window does nothing. ``lots.index`` finds the lot
    by identity, since ``Lot`` defines no ``__eq__``.
    """
    w = min(window_len, len(lots))
    order = lots[:w]
    shuffle(order, rng)
    for lot in order:
        pull = pulls.get(lot.id, 0)
        if pull:
            i = lots.index(lot)
            j = i + pull
            if 0 <= j < w:
                lots[i], lots[j] = lots[j], lot


def reshuffle_flsq(queue: MultiQueue, wc: Workcenter, own_index: int,
                   rng: random.Random, window_len: int = DEFAULT_FLSQ_LEN) -> None:
    """Reorder the window of ``queue`` in place.

    Pulls for all window lots are computed first, against one snapshot of the
    other machines: the workcenter's distance index gives, per lot type, how
    many machines show it and the sum of their distances, and subtracting
    the own machine's entry leaves the other machines'. Every window lot's
    type is in the own machine's entry, since the window is the own
    machine's window. The pulls are then applied via ``apply_pulls``, and
    the own machine is marked changed. Only called for the machine about to
    take a lot; the other queues reorder when their own machine takes.
    """
    lots = queue.lots
    w = min(window_len, len(lots))
    if w <= 1:
        return
    maps, counts, sums = wc.distance_index(window_len)
    own = maps[own_index]
    pulls = {}
    for pos, lot in enumerate(lots[:w], start=1):
        t = lot.lot_type
        pulls[lot.id] = pull_from_totals(pos, counts[t] - 1, sums[t] - own[t])
    apply_pulls(lots, pulls, window_len, rng)
    wc.index.changed.add(own_index)


def take_single(machine: Machine, queue: MultiQueue, wc: Workcenter,
                rng: random.Random, window_len: int = DEFAULT_FLSQ_LEN) -> None:
    """Reshuffle the queue window; the engine then loads the new head. A
    queue of one lot has nothing to reorder, so it skips the reshuffle."""
    if queue.size > 1:
        reshuffle_flsq(queue, wc, machine.index, rng, window_len)
