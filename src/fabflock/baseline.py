"""Engineered comparison policy.

Single-step workcenters: join the machine with the shortest queue, serve the
queue strictly FIFO. Batch workcenters, under every policy: top up the
partial batch missing the fewest lots anywhere in the workcenter (new batch
at the shortest overall queue when the type has no partial batch); a machine
starts a full batch as soon as one waits, and only falls back to its fullest
partial batch once the waiting timer has expired. All ties break uniformly
at random.
"""

from __future__ import annotations

import random

from .model import Batch, Lot, Machine, MultiQueue, Workcenter


# The two draw primitives take the same bits of ``rng.getrandbits``, in the
# same order, as CPython's ``Random.choice`` and ``Random.shuffle`` over
# ``_randbelow_with_getrandbits``, so the stream depends on the Mersenne
# Twister alone and not on stdlib algorithms that may change between
# Python versions.

def pick_uniform(items, rng: random.Random):
    """One element, uniformly at random when there is a real choice; a
    one-element sequence draws nothing, an empty one raises IndexError."""
    n = len(items)
    if n <= 1:
        return items[0]
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return items[r]


def shuffle(items: list, rng: random.Random) -> None:
    """Shuffle ``items`` in place, uniformly (Fisher-Yates from the back)."""
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def choose_single(lot: Lot, wc: Workcenter, rng: random.Random) -> int:
    """Machine with the shortest queue; ties uniform. The index's lowest
    bucket lists exactly those machines, in machine order."""
    buckets = wc.index.buckets
    return pick_uniform(buckets[min(buckets)], rng)


def choose_batch(lot: Lot, wc: Workcenter, rng: random.Random) -> tuple[int, str]:
    """Queue choice at a batch workcenter: (machine index, "join" | "new").

    Joins the workcenter's partial batch of the lot's type that misses the
    fewest lots, that is the fullest one, since every batch of the
    workcenter has the same size limit; with none anywhere, opens a new
    batch at the machine with the shortest overall queue. Ties uniform.
    Each machine holds at most one partial batch per type, so the
    candidates are the type's partial-batch owners in ``index.partials``.
    One owner is joined without a sort or a draw, as ``pick_uniform`` of
    one element draws nothing; only two or more are sorted into machine
    order (``partial_batches``) and ranked. An engine run never has two: a
    lot opens a new batch only when its type has no partial batch at the
    workcenter.
    """
    owners = wc.index.partials.get(lot.lot_type)
    if owners is None:
        return choose_single(lot, wc, rng), "new"
    if len(owners) == 1:
        (i,) = owners
        return i, "join"
    partials = wc.partial_batches(lot.lot_type)
    fullest = max(len(b.lots) for _, b in partials)
    return pick_uniform([i for i, b in partials if len(b.lots) == fullest], rng), "join"


def take_batch(machine: Machine, queue: MultiQueue,
               rng: random.Random, wt_expired: bool) -> Batch | None:
    """Batch from ``queue.batches`` to start, or None to keep waiting: a full
    batch first (uniform among several); after timer expiry the fullest
    partial batch (ties uniform). It returns a batch whenever a full batch
    waits, so an idle batch machine never keeps one past phase 3, which the
    engine's waiting timers rely on to run on without pausing."""
    fulls = queue.full_batches()
    if fulls:
        return pick_uniform(fulls, rng)
    if not wt_expired or not queue.batches:
        return None
    fullest = max(len(b.lots) for b in queue.batches)
    return pick_uniform([b for b in queue.batches if len(b.lots) == fullest], rng)


class BaselinePolicy:
    """Shortest-queue FIFO at single-step workcenters, and the root of every
    policy. The engine calls two hooks, both at single-step workcenters
    only:

    - ``choose_single(lot, wc, rng)``: index of the machine whose queue an
      arriving lot joins;
    - ``take_single(machine, queue, wc, rng)``: runs just before an idle
      single-step machine loads the head of its nonempty queue, and may only
      reorder that queue in place.

    ``wc`` is the decision's ``model.Workcenter``, whose docstring gives
    what a hook may change through it.

    Subclasses override these two. Batch workcenters run this module's
    ``choose_batch`` and ``take_batch`` under every policy; the engine calls
    them itself.
    """

    name = "baseline"

    def choose_single(self, lot: Lot, wc: Workcenter, rng: random.Random) -> int:
        return choose_single(lot, wc, rng)

    def take_single(self, machine: Machine, queue: MultiQueue,
                    wc: Workcenter, rng: random.Random) -> None:
        """FIFO: the head stays where it is."""
