"""Deterministic chunked random streams for reproducible Monte Carlo.

Work is split into fixed-size chunks, each with its own generator spawned
from the root seed.  The partition depends only on (seed, total), never on
how chunks are scheduled, and per-chunk moments are added in chunk order, so
reports are bit-identical across worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CHUNK_SIZE = 1 << 15


def chunked_generators(entropy, total: int, chunk_size: int = CHUNK_SIZE
                       ) -> list[tuple[int, np.random.Generator]]:
    """Ordered (count, generator) pairs covering ``total`` draws."""
    if total < 1:
        raise ValueError("total must be >= 1")
    if isinstance(entropy, np.random.SeedSequence):
        root = entropy
    else:
        root = np.random.SeedSequence(entropy)
    n_chunks = (total + chunk_size - 1) // chunk_size
    children = root.spawn(n_chunks)
    out = []
    done = 0
    for child in children:
        count = min(chunk_size, total - done)
        done += count
        out.append((count, np.random.default_rng(child)))
    return out


@dataclass(frozen=True)
class Moments:
    """Count, sum and sum of squares of a sample; ``+`` merges two parts."""

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    @classmethod
    def of(cls, values: np.ndarray) -> "Moments":
        return cls(int(values.size), float(values.sum()), float((values**2).sum()))

    def __add__(self, other: "Moments") -> "Moments":
        return Moments(self.count + other.count, self.total + other.total,
                       self.total_sq + other.total_sq)

    def mean_stderr(self) -> tuple[float, float]:
        """Sample mean and its standard error; nan where undefined."""
        n = self.count
        if n == 0:
            return math.nan, math.nan
        mean = self.total / n
        if n == 1:
            return mean, math.nan
        var = max(0.0, (self.total_sq - self.total**2 / n) / (n - 1))
        return mean, math.sqrt(var / n)
