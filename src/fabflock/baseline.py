"""Engineered comparison policy, and the ``Policy`` record every policy is.

Single-step workcenters: join the machine with the shortest queue
(``choose_single``), serve the queue strictly FIFO (``take_single``). Batch
workcenters, under every policy: a lot joins its type's partial batch if
the workcenter holds one, and otherwise opens a new batch at the shortest
overall queue; a machine starts a full batch as soon as one waits, and only
falls back to its fullest partial batch once the waiting timer has expired.
All ties break uniformly at random.

The paper words the join as "top up the partial batch missing the fewest
lots anywhere in the workcenter, ties uniform". That rank never has two
candidates: a lot opens a new batch only when its type has no partial batch
at the workcenter, so there is at most one per type, and
``MultiQueue.add_lot`` refuses a second. The rank and its tie draw are
therefore not coded; the tests keep the rule as written as their reference.
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

    Joins the workcenter's partial batch of the lot's type, without a draw;
    with none, opens a new batch at the machine with the shortest overall
    queue, ties uniform. The paper's "fewest lots missing" rank would pick
    among several partial batches of the type, but ``index.partials`` holds
    at most one (module docstring), so joining it is that rank's only
    outcome and its tie draw is never made.
    """
    entry = wc.index.partials.get(lot.lot_type)
    if entry is None:
        return choose_single(lot, wc, rng), "new"
    return entry[0], "join"


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


def take_single(machine: Machine, queue: MultiQueue, wc: Workcenter,
                rng: random.Random, window_len: int) -> None:
    """FIFO: the head stays where it is."""


class Policy:
    """A scheduling policy: a name and two rules, both for single-step
    workcenters only, which the engine calls as hooks:

    - ``choose_single(lot, wc, rng)``: index of the machine whose queue an
      arriving lot joins;
    - ``take_single(machine, queue, wc, rng, window_len)``: runs just before
      an idle single-step machine loads the head of its nonempty queue, and
      may only reorder that queue in place; ``window_len`` is the policy's
      ``flsq_len``, at least 1.

    ``wc`` is the decision's ``model.Workcenter``, whose docstring gives
    what a hook may change through it. A rule is a module-level function,
    such as this module's FIFO ``take_single``.

    Batch workcenters run this module's ``choose_batch`` and ``take_batch``
    under every policy; the engine calls them itself.
    """

    __slots__ = ("name", "choose_single", "take_single", "flsq_len")

    def __init__(self, name: str, choose_single, take_single, flsq_len: int):
        if flsq_len < 1:
            raise ValueError(f"flsq_len must be >= 1, got {flsq_len}")
        self.name = name
        self.choose_single = choose_single
        self.take_single = take_single
        self.flsq_len = flsq_len
