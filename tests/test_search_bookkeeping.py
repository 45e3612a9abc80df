"""What the search keeps about a candidate's parent instead of working
it out again, and that keeping it changes no answer.

* ``SelectionAlgorithm.consumed`` sums one memoised term per member,
  and a child :meth:`Configuration.add` built from the configuration it
  summed last sums that one's terms plus the new member's: the float is
  the from-scratch ``math.fsum``, bit for bit;
* a configuration ``add`` built records its parent's members and the
  added member (:attr:`Configuration.provenance`), and the delta
  coster's memo key read off it is the set-difference key;
* ``IndexDef.with_method`` keeps one variant per method, equal to
  ``dataclasses.replace``, and neither cache crosses a pickle;
* a rerun over a held stage builds no new ``IndexDef``, formats no
  ``repr`` (member order reads each structure's cached key) and asks
  the estimator about each structure at most once.
"""

import dataclasses
import math
import pickle
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advisor.algorithms.base import (
    EnumerationOptions,
    SelectionAlgorithm,
)
from repro.api import Session
from repro.compression.base import CompressionMethod
from repro.datasets import sales_database, sales_workload
from repro.optimizer.delta import DeltaWorkloadCoster
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.physical.mv_def import MVDefinition
from repro.sizeest.estimator import SizeEstimator
from repro.storage.index_build import IndexKind
from repro.workload.query import Workload

TABLES = ("fact", "dim", "other")
COLUMNS = ("a", "b", "c", "d")
METHODS = (CompressionMethod.NONE, CompressionMethod.ROW,
           CompressionMethod.PAGE)
MV = MVDefinition("mv_fact_dim", "fact", ("fact", "dim"))

secondaries = st.builds(
    lambda table, keys, method: IndexDef(table, tuple(keys), method=method),
    st.sampled_from(TABLES),
    st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True),
    st.sampled_from(METHODS),
)
bases = st.builds(
    lambda table, kind, method: IndexDef(
        table, () if kind is IndexKind.HEAP else ("a",), kind=kind,
        method=method,
    ),
    st.sampled_from(TABLES),
    st.sampled_from([IndexKind.HEAP, IndexKind.CLUSTERED]),
    st.sampled_from(METHODS),
)
mv_indexes = st.builds(
    lambda kind, method: IndexDef(MV.name, ("a",), kind=kind,
                                  method=method, mv=MV),
    st.sampled_from([IndexKind.SECONDARY, IndexKind.CLUSTERED]),
    st.sampled_from(METHODS),
)
structures = st.one_of(secondaries, bases, mv_indexes)
#: one step of a walk: add a structure, or remove the i-th member.
steps = st.one_of(
    st.tuples(st.just("add"), structures),
    st.tuples(st.just("remove"), st.integers(0, 30)),
)
#: sizes of every magnitude, so an order-dependent sum would show.
sizes = st.floats(min_value=1.0, max_value=1e15, allow_nan=False)


def _heaps() -> Configuration:
    return Configuration(IndexDef(t, (), kind=IndexKind.HEAP)
                         for t in TABLES)


def _walk(config: Configuration, step) -> Configuration:
    op, arg = step
    if op == "add":
        return config.add(arg)
    members = config.ordered()
    return config.remove(members[arg % len(members)]) if members else config


def _algorithm(size_of) -> SelectionAlgorithm:
    return SelectionAlgorithm(
        Workload(), lambda config: 0.0, size_of,
        {t: 8192.0 * (i + 1) for i, t in enumerate(TABLES)},
        EnumerationOptions(budget_bytes=0.0),
    )


def _from_scratch(algorithm: SelectionAlgorithm,
                  config: Configuration) -> float:
    return math.fsum(
        algorithm.index_size(ix) if ix.kind is IndexKind.SECONDARY
        or ix.is_mv_index
        else algorithm.index_size(ix) - algorithm.original_base_sizes[ix.table]
        for ix in config
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(steps, max_size=12), st.lists(structures, max_size=8),
       st.data())
def test_consumed_is_the_from_scratch_fsum_bit_for_bit(walk, children,
                                                       data):
    drawn: dict = {}

    def size_of(ix: IndexDef) -> float:
        if ix not in drawn:
            drawn[ix] = data.draw(sizes)
        return drawn[ix]

    algorithm = _algorithm(size_of)
    config = _heaps()
    for step in walk:
        config = _walk(config, step)
        assert algorithm.consumed(config).hex() == \
            _from_scratch(algorithm, config).hex()
        # A sweep: the parent summed member by member, then each child
        # from the parent's terms — and the parent again after them.
        for ix in children:
            child = config.add(ix)
            assert algorithm.consumed(child).hex() == \
                _from_scratch(algorithm, child).hex()
        assert algorithm.consumed(config).hex() == \
            _from_scratch(algorithm, config).hex()


def _coster(reference: Configuration) -> DeltaWorkloadCoster:
    """A coster whose reference is ``reference`` and nothing else: the
    memo key is a function of the reference's members alone."""
    coster = DeltaWorkloadCoster.__new__(DeltaWorkloadCoster)
    coster._ref_config = reference
    return coster


@settings(max_examples=150, deadline=None)
@given(st.lists(steps, max_size=10), st.lists(structures, max_size=8),
       st.lists(steps, max_size=3))
def test_the_provenance_memo_key_is_the_set_difference_key(walk, children,
                                                           detour):
    reference = _heaps()
    for step in walk:
        reference = _walk(reference, step)
    coster = _coster(reference)
    # The reference's own children, the children of an equal copy of
    # it, and the children of a configuration a detour away.
    parents = [reference, Configuration(reference.indexes)]
    away = reference
    for step in detour:
        away = _walk(away, step)
    parents.append(away)
    for parent in parents:
        for ix in children:
            child = parent.add(ix)
            key, added = coster._memo_key(child)
            assert (key, added) == coster._diff_key(child)
            if added is not None:
                # The memo file numbers a key's set by object.
                assert key[0] is reference.indexes
            grandchild = child.add(IndexDef("dim", ("d", "c")))
            assert coster._memo_key(grandchild) == \
                coster._diff_key(grandchild)


@settings(max_examples=100, deadline=None)
@given(structures, st.lists(st.sampled_from(METHODS), max_size=6))
def test_with_method_equals_replace_and_no_cache_is_pickled(ix, methods):
    for method in methods:
        variant = ix.with_method(method)
        assert variant == dataclasses.replace(ix, method=method)
        assert hash(variant) == hash(dataclasses.replace(ix, method=method))
        assert ix.with_method(method) is variant
    assert ix.with_method(ix.method) is ix
    restored = pickle.loads(pickle.dumps(ix))
    assert restored == ix
    assert "_variants" not in restored.__dict__
    assert "_hash_cache" not in restored.__dict__


def test_provenance_is_not_equality_and_is_not_pickled():
    parent = _heaps()
    ix = IndexDef("fact", ("a",))
    child = parent.add(ix)
    assert child.provenance == (parent.indexes, ix)
    plain = Configuration(child.indexes)
    assert plain.provenance is None
    assert child == plain and hash(child) == hash(plain)
    restored = pickle.loads(pickle.dumps(child))
    assert restored == child
    assert restored.provenance is None
    # An add that changes nothing, a base replacement and a removal
    # record no parent.
    assert child.add(ix).provenance is None
    base = IndexDef("fact", (), kind=IndexKind.HEAP,
                    method=CompressionMethod.ROW)
    assert child.add(base).provenance is None
    assert child.remove(ix).provenance is None


def test_a_rerun_over_a_held_stage_builds_and_sizes_nothing_again(
    monkeypatch,
):
    db = sales_database(scale=0.02)
    session = Session(db, sales_workload(db), variant="dtac-both",
                      budget_fraction=0.2, seed=1)
    cold = session.tune()
    built = [0]
    formatted = [0]
    asked: Counter = Counter()
    post_init = IndexDef.__post_init__
    index_repr = IndexDef.__repr__
    estimate = SizeEstimator.estimate

    def counted_post_init(ix):
        built[0] += 1
        post_init(ix)

    def counted_repr(ix):
        formatted[0] += 1
        return index_repr(ix)

    def counted_estimate(estimator, ix):
        asked[ix] += 1
        return estimate(estimator, ix)

    monkeypatch.setattr(IndexDef, "__post_init__", counted_post_init)
    monkeypatch.setattr(IndexDef, "__repr__", counted_repr)
    monkeypatch.setattr(SizeEstimator, "estimate", counted_estimate)
    rerun = session.tune()
    assert rerun.configuration == cold.configuration
    assert rerun.final_cost == cold.final_cost
    assert built[0] == 0
    # Member order is read from each structure's cached key.
    assert formatted[0] == 0
    assert max(asked.values(), default=0) <= 1
