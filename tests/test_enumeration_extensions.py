"""Tests for the enumeration extensions: seeded multi-start greedy, the
final method-polish pass, and base-structure compression as first-class
pool moves."""

import pytest

from repro.advisor.algorithms import (
    EnumerationOptions,
    GreedyBacktrackAlgorithm,
)
from repro.compression import CompressionMethod
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.storage.index_build import IndexKind
from repro.workload.query import Workload

MB = 1024 * 1024


class TrapCost:
    """A cost surface with a greedy trap.

    Picking the big index B (benefit 12) first exhausts the budget; the
    optimum is the two smaller indexes {S1, S2} (benefit 8 + 7).  Single
    seed greedy falls in; fanout >= 2 escapes.
    """

    BASE = 100.0

    def __init__(self):
        self.big = IndexDef("t", ("b",))
        self.s1 = IndexDef("t", ("s1",))
        self.s2 = IndexDef("t", ("s2",))
        self.heap = IndexDef("t", (), kind=IndexKind.HEAP)
        self.sizes = {
            self.big: 10.0 * MB,
            self.s1: 5.0 * MB,
            self.s2: 5.0 * MB,
            self.heap: 0.0,
        }

    def size(self, ix):
        if ix not in self.sizes:
            return self.sizes.get(ix.uncompressed(), 0.0) * 0.5
        return self.sizes[ix]

    def cost(self, config):
        cost = self.BASE
        if self.big in config:
            cost -= 12.0
        if self.s1 in config:
            cost -= 8.0
        if self.s2 in config:
            cost -= 7.0
        return cost

    def pool(self):
        return [self.big, self.s1, self.s2]

    def base(self):
        return Configuration([self.heap])


def make_enumerator(fake, budget_mb=10.0, seed_fanout=3,
                    backtracking=False, allow_compression=True):
    options = EnumerationOptions(
        budget_bytes=budget_mb * MB,
        backtracking=backtracking,
        seed_fanout=seed_fanout,
        allow_compression=allow_compression,
    )
    return GreedyBacktrackAlgorithm(
        Workload(), fake.cost, fake.size, {"t": 0.0}, options
    )


class TestSeededMultiStart:
    def test_single_seed_falls_into_trap(self):
        fake = TrapCost()
        result = make_enumerator(fake, seed_fanout=1).run(
            fake.pool(), fake.base()
        )
        assert fake.big in result.configuration
        assert result.cost == pytest.approx(88.0)

    def test_fanout_escapes_trap(self):
        fake = TrapCost()
        result = make_enumerator(fake, seed_fanout=3).run(
            fake.pool(), fake.base()
        )
        assert fake.s1 in result.configuration
        assert fake.s2 in result.configuration
        assert result.cost == pytest.approx(85.0)

    def test_fanout_never_worse_than_single_seed(self):
        fake = TrapCost()
        single = make_enumerator(fake, seed_fanout=1).run(
            fake.pool(), fake.base()
        )
        multi = make_enumerator(fake, seed_fanout=4).run(
            fake.pool(), fake.base()
        )
        assert multi.cost <= single.cost

    def test_empty_pool_returns_base(self):
        fake = TrapCost()
        result = make_enumerator(fake).run([], fake.base())
        assert result.configuration == fake.base()
        assert result.cost == pytest.approx(TrapCost.BASE)

    def test_budget_always_respected(self):
        fake = TrapCost()
        for budget in (0.0, 4.9, 5.0, 10.0, 100.0):
            result = make_enumerator(fake, budget_mb=budget).run(
                fake.pool(), fake.base()
            )
            assert result.consumed_bytes <= budget * MB + 1e-6


class PolishCost:
    """Cost surface where the PAGE variant of S beats uncompressed after
    the greedy finishes (e.g. I/O-bound scan)."""

    BASE = 50.0

    def __init__(self):
        self.s = IndexDef("t", ("s",))
        self.s_page = self.s.with_method(CompressionMethod.PAGE)
        self.heap = IndexDef("t", (), kind=IndexKind.HEAP)

    def size(self, ix):
        if ix == self.heap:
            return 0.0
        return 4.0 * MB if ix.is_compressed else 10.0 * MB

    def cost(self, config):
        cost = self.BASE
        if self.s_page in config:
            cost -= 12.0
        elif self.s in config:
            cost -= 10.0
        return cost


class TestPolish:
    def test_polish_upgrades_method(self):
        fake = PolishCost()
        enumerator = make_enumerator(fake, budget_mb=20.0)
        # Only the uncompressed variant is in the pool: the polish pass
        # must still find the better PAGE variant.
        result = enumerator.run([fake.s], Configuration([fake.heap]))
        assert fake.s_page in result.configuration
        assert result.cost == pytest.approx(38.0)

    def test_polish_respects_budget(self):
        fake = PolishCost()
        # PAGE variant is smaller here, so shrink the budget so only the
        # compressed variant fits; polish must still land inside it.
        enumerator = make_enumerator(fake, budget_mb=5.0)
        result = enumerator.run([fake.s_page], Configuration([fake.heap]))
        assert result.consumed_bytes <= 5.0 * MB + 1e-6

    def test_polish_disabled_without_compression(self):
        fake = PolishCost()
        enumerator = make_enumerator(
            fake, budget_mb=20.0, allow_compression=False
        )
        result = enumerator.run([fake.s], Configuration([fake.heap]))
        assert fake.s in result.configuration
        assert fake.s_page not in result.configuration

    def test_polish_can_decompress(self):
        """The reverse direction: a compressed pick whose uncompressed
        variant is faster and fits gets decompressed."""
        fake = PolishCost()

        def cost(config):
            c = fake.BASE
            if fake.s in config:
                c -= 12.0       # uncompressed now faster
            elif fake.s_page in config:
                c -= 10.0
            return c

        options = EnumerationOptions(
            budget_bytes=20.0 * MB, seed_fanout=2
        )
        enumerator = GreedyBacktrackAlgorithm(
            Workload(), cost, fake.size, {"t": 0.0}, options
        )
        result = enumerator.run([fake.s_page], Configuration([fake.heap]))
        assert fake.s in result.configuration
