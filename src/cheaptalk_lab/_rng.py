"""Deterministic chunked random streams for reproducible Monte Carlo.

Work is split into fixed-size chunks, each with its own generator spawned
from the root seed.  The partition depends only on (seed, total, chunk size),
never on how chunks are scheduled, and per-chunk moments are merged in chunk
order, so reports are bit-identical across worker counts.  A chunk's moments
are its count, mean and sum of squared deviations M2, formed about the
chunk's first value so that a constant sample has its exact mean and M2 = 0,
and merged by the pairwise update of Chan, Golub and LeVeque (1979).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

CHUNK_SIZE = 1 << 15
STATE_BUDGET = 1 << 20   # states drawn per chunk of histories


def history_chunk(horizon: int) -> int:
    """Episodes per chunk of ``horizon``-period histories: CHUNK_SIZE up to
    T = 32, then as many as fit in STATE_BUDGET states, at least one."""
    return max(1, min(CHUNK_SIZE, STATE_BUDGET // horizon))


def chunked_generators(entropy, total: int,
                       size: int = CHUNK_SIZE) -> list[tuple[int, np.random.Generator]]:
    """Ordered (count, generator) pairs covering ``total`` draws in chunks of
    ``size``."""
    if not isinstance(entropy, np.random.SeedSequence):
        entropy = np.random.SeedSequence(entropy)
    children = entropy.spawn((total + size - 1) // size)
    return [(min(size, total - i * size), np.random.default_rng(child))
            for i, child in enumerate(children)]


def run_chunks(entropy, total: int, worker, workers: int = 1,
               size: int = CHUNK_SIZE) -> list[Moments]:
    """Run ``worker(count, rng)`` on each chunk of ``total`` draws, on
    ``workers`` threads, and merge its tuples of moments in chunk order."""
    chunks = chunked_generators(entropy, total, size)
    if workers <= 1:
        parts = [worker(count, rng) for count, rng in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda chunk: worker(*chunk), chunks))
    return [sum(column, Moments()) for column in zip(*parts)]


@dataclass(frozen=True)
class Moments:
    """Count, mean and sum of squared deviations M2 of a sample; ``+``
    merges two parts."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def of(cls, values: np.ndarray) -> "Moments":
        n = int(values.size)
        if not n:
            return cls()
        shift = float(values.flat[0])
        deviations = values - shift
        total = float(deviations.sum())
        deviations **= 2   # in place, so no second array
        # max(m2, 0.0) clamps a rounded M2 below 0 and keeps a NaN one
        return cls(n, shift + total / n,
                   max(float(deviations.sum()) - total * total / n, 0.0))

    def __add__(self, other: "Moments") -> "Moments":
        if not self.count or not other.count:
            return self if self.count else other
        n = self.count + other.count
        delta = other.mean - self.mean
        return Moments(n, self.mean + delta * (other.count / n),
                       self.m2 + other.m2 + delta * delta * (self.count * other.count / n))

    def mean_stderr(self) -> tuple[float, float]:
        """Sample mean and its standard error; nan where undefined."""
        n = self.count
        if n == 0:
            return math.nan, math.nan
        if n == 1:
            return self.mean, math.nan
        return self.mean, math.sqrt(self.m2 / (n - 1) / n)
