"""Zipf-distributed value sampling for skewed data generation.

The paper's Appendix C repeats its error analysis on skewed TPC-H
variants (Z=0, Z=1, Z=3); this module provides the skew knob.  Z=0
degenerates to uniform.

:func:`randbelow` is the uniform draw the generators make per value:
bound once to a ``random.Random``, it consumes the generator exactly as
CPython's ``randrange(n)`` does (``getrandbits(n.bit_length())`` until
the draw is below ``n``), minus two Python frames per call.  So
``randrange(a, b)`` is ``a + below(b - a)`` and ``choice(seq)`` is
``seq[below(len(seq))]``, draw for draw.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import partial
from typing import Callable

from repro.errors import ReproError


def randbelow(rng: random.Random) -> Callable[[int], int]:
    """``below(n)``: ``rng.randrange(n)``, same draws, same RNG state."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


class ZipfSampler:
    """Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^z.

    ``sample()`` draws one rank (permuted when shuffling is on); it is
    bound once at construction, so a generator can hoist it out of its
    row loop.

    Args:
        n: domain size.
        z: skew parameter (0 = uniform).
        rng: random source; omit to derive one from ``seed``.
        shuffle: permute ranks so skew does not correlate with value
            order (hot values are spread over the domain).
        seed: explicit seed used when no ``rng`` is given, so every
            entry point is reproducible without sharing a generator.
    """

    DEFAULT_SEED = 20110829

    def __init__(self, n: int, z: float, rng: random.Random | None = None,
                 shuffle: bool = True, seed: int | None = None) -> None:
        if n <= 0:
            raise ReproError("ZipfSampler needs a positive domain size")
        if z < 0:
            raise ReproError("zipf skew must be >= 0")
        if rng is not None and seed is not None:
            raise ReproError("pass either rng or seed, not both")
        self.n = n
        self.z = z
        if rng is None:
            rng = random.Random(self.DEFAULT_SEED if seed is None else seed)
        perm = list(range(n))
        if shuffle and z > 0:
            rng.shuffle(perm)
        self.sample: Callable[[], int]
        if z == 0:
            self.sample = partial(randbelow(rng), n)
            return
        weights = [1.0 / (i + 1) ** z for i in range(n)]
        total = sum(weights)
        acc = 0.0
        cdf = []
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0
        uniform = rng.random
        # random() < 1.0 == cdf[-1], so the rank is always < n.
        self.sample = lambda: perm[bisect_left(cdf, uniform())]

    def sample_many(self, count: int) -> list[int]:
        sample = self.sample
        return [sample() for _ in range(count)]
