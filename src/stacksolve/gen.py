"""Seeded instance generators on a fixed, documented PRNG.

The generator is splitmix64: state advances by the additive constant
0x9E3779B97F4A7C15 (mod 2^64) and each output is finalized with
``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31``. Floats take the top 53 bits over
2^53, bounded integers use the remainder, and shuffles are backward
Fisher-Yates. Spelling the recurrence out keeps every generated corpus
byte-reproducible from (kind, seed, size parameters) alone, independent of
any library RNG.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InputError
from .permmatch import Multigraph, PermMatchInstance, ThreeDMInstance

if TYPE_CHECKING:
    from .bimatrix import BimatrixGame

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) / 2.0**53

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise InputError("next_below needs a positive bound")
        return self.next_u64() % n

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def random_bimatrix(seed: int, n: int, m: int, low: float = 0.0, high: float = 1.0) -> BimatrixGame:
    from .bimatrix import BimatrixGame  # here, so that gen random-pm and random-3dm never load numpy

    if n < 1 or m < 1 or high < low:
        raise InputError("bad bimatrix size or payoff range")
    rng = SplitMix64(seed)
    ul = [[low + (high - low) * rng.next_float() for _ in range(m)] for _ in range(n)]
    uf = [[low + (high - low) * rng.next_float() for _ in range(m)] for _ in range(n)]
    return BimatrixGame(ul, uf)


def random_permmatch(seed: int, num_vertices: int, num_edges: int) -> PermMatchInstance:
    if num_vertices < 2 or num_edges < 0:
        raise InputError("need at least two vertices and a nonnegative edge count")
    rng = SplitMix64(seed)
    edges = []
    for _ in range(num_edges):
        u = rng.next_below(num_vertices)
        v = rng.next_below(num_vertices - 1)
        if v >= u:
            v += 1
        edges.append((u, v))
    pi = rng.shuffle(list(range(num_edges)))
    return PermMatchInstance(Multigraph(num_vertices, tuple(edges)), tuple(pi))


def random_3dm(seed: int, n_a: int, n_b: int, n_c: int, density: float) -> ThreeDMInstance:
    if not 0.0 <= density <= 1.0:
        raise InputError("density must lie in [0, 1]")
    rng = SplitMix64(seed)
    triples = []
    for a in range(n_a):
        for b in range(n_b):
            for c in range(n_c):
                if rng.next_float() < density:
                    triples.append((a, b, c))
    return ThreeDMInstance(n_a, n_b, n_c, tuple(triples))
