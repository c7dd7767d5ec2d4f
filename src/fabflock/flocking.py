"""Flocking-inspired scheduling policy.

Lots of one type behave as a loose flock. At single-step workcenters they
spread out: an arriving lot prefers the queues holding the fewest lots of its
own type and only then the shortest of those. They cohere in time through
queue reshuffling just before a machine takes its next lot. Batch workcenter
decisions reuse the baseline rules unchanged, since those already gather
same-type lots into shared batches.

Reshuffling works on the first-lots queue (FLSQ): the first ``flsq_len``
positions of the taking machine's queue. Every lot in the window compares its
1-based position against the first same-type lot at each other machine in the
workcenter, where a machine processing the type counts as distance 0 and a
machine without the type in its own window contributes nothing. A lot farther
out than the average of those distances gets a pull of -1 (one place toward
the head), a closer lot +1 (one place toward the back), otherwise 0. Moves
are applied in random visit order, so an earlier insertion can displace a lot
before its own move; the resulting fuzzy drift is intended. Lots beyond the
window never move.
"""

from __future__ import annotations

import random
from typing import Sequence

# choose_batch and take_batch stay imported: bench/run.py traces them under these names.
from .baseline import BaselinePolicy, choose_batch, pick_uniform, take_batch  # noqa: F401
from .model import Lot, Machine, MultiQueue, WorkcenterView

DEFAULT_FLSQ_LEN = 5


def choose_single(lot: Lot, view: WorkcenterView, rng: random.Random) -> int:
    """Among the queues with the fewest lots of the lot's own type, take the
    shortest; remaining ties uniform."""
    counts = view.type_counts(lot.lot_type)
    least = min(counts)
    candidates = [i for i, c in enumerate(counts) if c == least]
    lens = view.queue_lens()
    shortest = min(lens[i] for i in candidates)
    return pick_uniform([i for i in candidates if lens[i] == shortest], rng)


def first_same_type_distance(lot_type: int, view: WorkcenterView,
                             machine_index: int, window_len: int) -> int | None:
    """Distance from machine ``machine_index`` to its nearest ``lot_type`` lot.

    0 while the machine processes that type, otherwise the 1-based queue
    position of the first such lot inside the machine's window; None when the
    type is visible neither on the machine nor in the window. This is the
    per-machine rule; ``same_type_distances`` applies it to every other
    machine and type at once.
    """
    if view.processing_type(machine_index) == lot_type:
        return 0
    for pos, t in enumerate(view.window_types(machine_index, window_len), start=1):
        if t == lot_type:
            return pos
    return None


def compute_pull(own_distance: int, other_distances: Sequence[int]) -> int:
    """Pull in {-1, 0, +1}: -1 when the lot sits farther out than the average
    same-type distance at the other machines, +1 when closer, 0 on a tie or
    when no other machine contributes. Exact integer comparison."""
    n = len(other_distances)
    if n == 0:
        return 0
    total = sum(other_distances)
    if own_distance * n > total:
        return -1
    if own_distance * n < total:
        return 1
    return 0


def apply_pulls(lots: list[Lot], pulls: dict[int, int],
                window_len: int, rng: random.Random) -> None:
    """Apply single-place moves inside the window, in random visit order.

    ``pulls`` maps lot id to pull. Each visited lot moves one place from its
    position at visit time, clamped to the window, so earlier moves can shift
    where later ones land.
    """
    w = min(window_len, len(lots))
    order = lots[:w]
    rng.shuffle(order)
    for lot in order:
        pull = pulls.get(lot.id, 0)
        if pull == 0:
            continue
        i = 0
        while lots[i] is not lot:  # by identity: moves never leave the window
            i += 1
        j = min(max(i + pull, 0), w - 1)
        if j != i:
            lots.pop(i)
            lots.insert(j, lot)


def same_type_distances(view: WorkcenterView, own_index: int,
                        window_len: int) -> dict[int, list[int]]:
    """Lot type -> ``first_same_type_distance`` of every other machine that
    shows the type, in machine order, from one pass over the other machines."""
    distances: dict[int, list[int]] = {}
    for other in range(len(view)):
        if other == own_index:
            continue
        processing = view.processing_type(other)
        if processing is not None:
            distances.setdefault(processing, []).append(0)
        seen = {processing}
        for pos, t in enumerate(view.window_types(other, window_len), start=1):
            if t not in seen:
                seen.add(t)
                distances.setdefault(t, []).append(pos)
    return distances


def reshuffle_flsq(queue: MultiQueue, view: WorkcenterView, own_index: int,
                   rng: random.Random, window_len: int = DEFAULT_FLSQ_LEN) -> None:
    """Reorder the window of ``queue`` in place.

    Pulls for all window lots are computed first, against one snapshot of the
    other machines taken per take: ``same_type_distances`` reads each other
    machine once, so the work grows with the number of machines, not with
    machines x window. The pulls are then applied via ``apply_pulls``. Only
    called for the machine about to take a lot; the other queues reorder when
    their own machine takes.
    """
    lots = queue.lots
    w = min(window_len, len(lots))
    if w <= 1:
        return
    distances = same_type_distances(view, own_index, window_len)
    pulls = {lot.id: compute_pull(pos, distances.get(lot.lot_type, ()))
             for pos, lot in enumerate(lots[:w], start=1)}
    apply_pulls(lots, pulls, window_len, rng)


def take_single(machine: Machine, queue: MultiQueue, view: WorkcenterView,
                rng: random.Random, window_len: int = DEFAULT_FLSQ_LEN) -> None:
    """Reshuffle the queue window; the engine then loads the new head."""
    reshuffle_flsq(queue, view, machine.index, rng, window_len)


class FlockingPolicy(BaselinePolicy):
    """Separation at queue choice, cohesion-in-time at take time; batch
    decisions stay the inherited baseline rules."""

    name = "flocking"

    def __init__(self, flsq_len: int = DEFAULT_FLSQ_LEN):
        if flsq_len < 1:
            raise ValueError("flsq_len must be >= 1")
        self.flsq_len = flsq_len

    def choose_single(self, lot, view, rng):
        return choose_single(lot, view, rng)

    def take_single(self, machine, queue, view, rng):
        take_single(machine, queue, view, rng, self.flsq_len)
