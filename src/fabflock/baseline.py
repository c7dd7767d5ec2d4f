"""Engineered comparison policy.

Single-step workcenters: join the machine with the shortest queue, serve the
queue strictly FIFO. Batch workcenters: top up the partial batch missing the
fewest lots anywhere in the workcenter (new batch at the shortest overall
queue when the type has no partial batch); a machine starts a full batch as
soon as one waits, and only falls back to its fullest partial batch once the
waiting timer has expired. All ties break uniformly at random.
"""

from __future__ import annotations

import random

from .model import (
    Batch,
    Lot,
    Machine,
    MachineKind,
    MultiQueue,
    WorkcenterView,
    batch_missing,
)


def pick_uniform(items, rng: random.Random):
    """One element, uniformly at random when there is a real choice."""
    if len(items) == 1:
        return items[0]
    return rng.choice(items)


def choose_single(lot: Lot, view: WorkcenterView, rng: random.Random) -> int:
    """Machine with the shortest queue; ties uniform."""
    lens = [view.queue_len(i) for i in range(len(view))]
    shortest = min(lens)
    return pick_uniform([i for i, n in enumerate(lens) if n == shortest], rng)


def choose_batch(lot: Lot, view: WorkcenterView, rng: random.Random) -> tuple[int, str]:
    """Queue choice at a batch workcenter: (machine index, "join" | "new").

    Joins the workcenter's partial batch of the lot's type that misses the
    fewest lots; with none anywhere, opens a new batch at the machine with
    the shortest overall queue. Ties uniform.
    """
    partials = view.partial_batches(lot.lot_type)
    if partials:
        fewest = min(batch_missing(b, view.batch_size) for _, b in partials)
        ties = [i for i, b in partials if batch_missing(b, view.batch_size) == fewest]
        return pick_uniform(ties, rng), "join"
    return choose_single(lot, view, rng), "new"


def take_batch(machine: Machine, queue: MultiQueue,
               rng: random.Random, wt_expired: bool) -> Batch | None:
    """Full batch first (uniform among several); after timer expiry the
    fullest partial batch (ties uniform); otherwise keep waiting."""
    fulls = queue.full_batches()
    if fulls:
        return pick_uniform(fulls, rng)
    if not wt_expired or not queue.batches:
        return None
    fullest = max(len(b.lots) for b in queue.batches)
    return pick_uniform([b for b in queue.batches if len(b.lots) == fullest], rng)


class BaselinePolicy:
    """Shortest-queue FIFO plus fill-least-missing-batch-first, and the root
    of every policy. The engine calls three hooks:

    - ``choose_queue(lot, view, rng)``: index of the machine whose queue an
      arriving lot joins;
    - ``take_single(machine, queue, view, rng)``: runs just before an idle
      single-step machine loads the head of its nonempty queue, and may only
      reorder that queue in place;
    - ``take_batch(machine, queue, rng, wt_expired)``: batch from
      ``queue.batches`` to start, or None to keep waiting.

    Subclasses change single-step decisions through ``choose_single`` and
    ``take_single``; batch decisions stay the baseline rules.
    """

    name = "baseline"

    def choose_queue(self, lot: Lot, view: WorkcenterView, rng: random.Random) -> int:
        if view.kind is MachineKind.BATCH:
            return choose_batch(lot, view, rng)[0]
        return self.choose_single(lot, view, rng)

    def choose_single(self, lot: Lot, view: WorkcenterView, rng: random.Random) -> int:
        return choose_single(lot, view, rng)

    def take_single(self, machine: Machine, queue: MultiQueue,
                    view: WorkcenterView, rng: random.Random) -> None:
        """FIFO: the head stays where it is."""

    def take_batch(self, machine: Machine, queue: MultiQueue,
                   rng: random.Random, wt_expired: bool) -> Batch | None:
        return take_batch(machine, queue, rng, wt_expired)
