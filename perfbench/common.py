"""Shared pieces of the benchmark: seeded op mixes, timing statistics and
the operation record every workload produces."""

from __future__ import annotations

import statistics
from dataclasses import dataclass


class Mix:
    """Deterministic weighted interleaving of op kinds (stride scheduling).

    Every prefix of the stream holds each kind in proportion to its weight,
    to within one op, so runs of any length see the same mix; the seed only
    moves each kind's starting phase.
    """

    def __init__(self, weights: dict, rng):
        self.kinds = sorted(weights)
        self.stride = {k: 1.0 / weights[k] for k in self.kinds}
        self.phase = {k: rng.random() * self.stride[k] for k in self.kinds}

    def next(self) -> str:
        kind = min(self.kinds, key=lambda k: (self.phase[k], k))
        self.phase[kind] += self.stride[kind]
        return kind


class Cycle:
    """Seeded shuffled cycling through a list of variants: over any long
    prefix every variant appears equally often."""

    def __init__(self, items, rng):
        self.items = list(items)
        self.rng = rng
        self.queue: list = []

    def next(self):
        if not self.queue:
            self.queue = list(self.items)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


@dataclass
class Op:
    """One generated request: a kind and JSON-serializable parameters."""

    kind: str
    params: dict


@dataclass
class Sample:
    """One executed op: its latency and, if it failed, why."""

    kind: str
    seconds: float
    error: str | None = None


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with at least ten
    samples beyond it: the 11th largest sample, at 100 (n - 10) / n."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n

