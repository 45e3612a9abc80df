"""The statement coster's shape memo and the kernel's access-shape memo.

A statement's :class:`~repro.optimizer.statement_cost.SelectShape` and
kernel key are derived once per statement object
(``StatementCoster.statement_shape``); the delta coster's plan table
reads the same key, so a probe and a full recost share one access-shape
entry.  Both memos are pure caches with a module-constant bound: a
memoised answer equals a fresh coster's bit for bit, and past a bound a
memo starts over without moving a float.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.advisor.advisor import AdvisorOptions, TuningAdvisor
from repro.api import Session
from repro.compression.base import CompressionMethod
from repro.datasets.sales import sales_database, sales_queries, sales_workload
from repro.optimizer import kernels, statement_cost
from repro.optimizer.kernels import CostKernel
from repro.optimizer.statement_cost import StatementCoster
from repro.physical.index_def import IndexDef
from repro.service import context as context_module
from repro.service.context import ServiceContext
from repro.sizeest.estimator import SizeEstimator
from repro.stats.column_stats import DatabaseStats
from repro.workload.query import InsertQuery, Workload

from tests.test_delta_costing import update_heavy_workload

#: the secondaries a served question in these tests names.
SPECS = (
    {"table": "sales", "key_columns": ["sa_date"],
     "included_columns": ["sa_total"], "method": "page"},
    {"table": "customers", "key_columns": ["cu_segment"]},
)


@pytest.fixture(scope="module")
def sales_db():
    return sales_database(scale=0.03)


def _rig(db, wl):
    """(optimizer, workload, base configuration, secondary pool)."""
    stats = DatabaseStats(db)
    advisor = TuningAdvisor(
        db, wl, AdvisorOptions(budget_bytes=db.total_data_bytes() * 0.2),
        estimator=SizeEstimator(db, stats=stats), stats=stats,
    )
    pool = []
    for table in ("sales", "customers", "products"):
        cols = db.table(table).column_names
        pool += [
            IndexDef(table, (cols[0],)),
            IndexDef(table, (cols[2], cols[1]),
                     method=CompressionMethod.ROW),
            IndexDef(table, (cols[1],), included_columns=(cols[3],),
                     method=CompressionMethod.PAGE),
        ]
    return advisor.whatif, wl, advisor.base_config, pool


@pytest.fixture(scope="module", params=["sales", "update-heavy"])
def rig(request, sales_db):
    wl = sales_workload(sales_db)
    if request.param == "update-heavy":
        # UPDATE/DELETE statements: the find-probe path.
        wl = update_heavy_workload(wl)
    return _rig(sales_db, wl)


def _breakdown(breakdown) -> tuple:
    return (breakdown.total.hex(), breakdown.io.hex(), breakdown.cpu.hex(),
            breakdown.plans, breakdown.used_mv)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_memoised_cost_equals_a_fresh_costers(rig, data):
    whatif, wl, base, pool = rig
    config = base
    for ix in data.draw(st.lists(st.sampled_from(pool), max_size=4)):
        config = config.add(ix)
    table = data.draw(st.sampled_from(["sales", "customers", "products"]))
    method = data.draw(st.sampled_from(list(CompressionMethod)))
    heap = config.base_structure(table)
    config = config.replace(heap, heap.with_method(method))
    memoised = whatif.coster
    fresh = StatementCoster(
        memoised.database, memoised.stats, memoised.sizes,
        memoised.constants, CostKernel(),
    )
    for ws in wl:
        assert _breakdown(memoised.cost(ws.statement, config)) == \
            _breakdown(fresh.cost(ws.statement, config))


def test_an_update_shares_its_find_probes_shape(rig):
    """An UPDATE or DELETE is shaped once, by its find probe; a bulk
    INSERT has no shape."""
    whatif, wl, _base, _pool = rig
    coster = whatif.coster
    for ws in wl:
        shape, key = coster.statement_shape(ws.statement)
        assert coster.statement_shape(ws.statement) == (shape, key)
        if isinstance(ws.statement, InsertQuery):
            assert shape is None
        else:
            assert shape is not None and key is not None


def test_probes_and_full_recosts_share_one_shape_entry(rig):
    """The delta coster's plan table asks the kernel under the coster's
    key: probing the structures a full recost already shaped adds no
    access-shape entry."""
    whatif, wl, base, _pool = rig
    whatif.kernel._shapes.clear()
    for ws in wl:
        whatif.coster.cost(ws.statement, base)
    entries = whatif.kernel.stats()["shape_entries"]
    delta = whatif.delta_coster(wl)
    delta.rebase(base)
    assert delta.probe_evals > 0
    assert whatif.kernel.stats()["shape_entries"] == entries


def test_one_tune_derives_each_statements_shape_once(sales_db, monkeypatch):
    wl = update_heavy_workload(sales_workload(sales_db))
    derived = []
    select_shape = StatementCoster.select_shape

    def counted(self, query):
        derived.append(query)
        return select_shape(self, query)

    monkeypatch.setattr(StatementCoster, "select_shape", counted)
    Session(sales_db, wl, budget_fraction=0.15).tune()
    planned = [
        ws for ws in wl if not isinstance(ws.statement, InsertQuery)
    ]
    assert len(derived) == len(planned)


def _context(db, statements=None):
    wl = sales_workload(db)
    if statements is not None:
        wl = Workload(wl.statements[:statements])
    return ServiceContext("sales", db, wl)


def _memo_sizes(context) -> tuple[int, int]:
    return (len(context.whatif.coster._statement_shapes),
            len(context.whatif.kernel._shapes))


def test_a_question_by_sql_equals_it_by_statement_index(sales_db):
    context = _context(sales_db)
    for si, (_name, sql) in enumerate(sales_queries()[:12]):
        by_index = context.run_whatif_cost(
            {"statement_index": si, "indexes": list(SPECS)}
        )
        by_sql = context.run_whatif_cost(
            {"sql": sql, "indexes": list(SPECS)}
        )
        assert by_sql == by_index


def test_a_repeated_question_derives_nothing_again(sales_db):
    """Ad-hoc SQL equal to a statement already held — a workload
    statement or an earlier question — is costed as that object, so
    asking it again adds no entry to either memo."""
    context = _context(sales_db, statements=6)
    queries = sales_queries()
    for _name, sql in queries[:12]:
        question = {"sql": sql, "indexes": list(SPECS)}
        answer = context.run_whatif_cost(question)
        sizes = _memo_sizes(context)
        assert context.run_whatif_cost(question) == answer
        assert _memo_sizes(context) == sizes
    # A workload statement asked by SQL shares what its index derived.
    sizes = _memo_sizes(context)
    for si in range(6):
        context.run_whatif_cost({"statement_index": si,
                                 "indexes": list(SPECS)})
    assert _memo_sizes(context) == sizes


def test_ad_hoc_questions_leave_every_memo_within_its_bound(
    sales_db, monkeypatch,
):
    """Distinct ad-hoc SQL adds held statements and shapes; past a
    bound each memo starts over, and the answers stay the same floats."""
    questions = [
        {"sql": sql, "indexes": list(SPECS[:n % 3])}
        for n, (_name, sql) in enumerate(sales_queries())
    ]
    reference = _context(sales_db)
    expected = [reference.run_whatif_cost(q) for q in questions]
    monkeypatch.setattr(context_module, "_HELD_AD_HOC_STATEMENTS", 6)
    monkeypatch.setattr(statement_cost, "_STATEMENT_MEMO_ENTRIES", 8)
    monkeypatch.setattr(kernels, "_SHAPE_MEMO_ENTRIES", 64)
    context = _context(sales_db, statements=4)
    assert len(questions) > 8
    for _round in range(2):
        for question, answer in zip(questions, expected):
            assert context.run_whatif_cost(question) == answer
            assert len(context._ad_hoc_statements) <= 6
            statements, shapes = _memo_sizes(context)
            assert statements <= 8 and shapes <= 64
