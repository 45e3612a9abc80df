"""The sample fingerprint: an exact, column-wise content digest
memoised per `Table`, combined with the sampling seed per manager.

Its value is opaque; its guarantees are not.  Different data, schema,
names, seed or `min_sample_rows` must give a different fingerprint;
equal content must give the same one in any process under any
``PYTHONHASHSEED``; and a table is scanned once for as long as its
data does not change, however many runs fingerprint it.
"""

import copy

import pytest

from repro.api import Session
from repro.catalog import Column, Database, INT, Table, char
from repro.datasets.sales import sales_database, sales_workload
from repro.parallel import sample_fingerprint
from repro.sampling import SampleManager


def make_table(name="t", columns=("a", "b"), rows=((1, "x"), (2, "y"))):
    table = Table(name, [Column(columns[0], INT), Column(columns[1], char(8))])
    for row in rows:
        table.append_row(row)
    return table


def fingerprint(*tables, **manager_kwargs):
    db = Database("db")
    for table in tables:
        db.add_table(table)
    return sample_fingerprint(SampleManager(db, **manager_kwargs))


class CountingList(list):
    """A column list that counts how often it is serialized whole."""

    reprs = 0

    def __repr__(self):
        self.reprs += 1
        return super().__repr__()


def count_scans(database):
    """Swap every column list for a counting one; returns them all."""
    lists = []
    for table in database.tables:
        for name in table.column_names:
            counted = CountingList(table.column_values(name))
            table.set_column_data(name, counted)
            lists.append(counted)
    return lists


class TestDigestMemo:
    def test_scanned_once_until_the_data_changes(self):
        db = Database("db")
        db.add_table(make_table())
        lists = count_scans(db)
        table = db.table("t")
        first = table.content_digest()
        assert table.content_digest() == first
        assert [c.reprs for c in lists] == [1, 1]

    def test_append_row_drops_the_memo(self):
        table = make_table()
        before = table.content_digest()
        table.append_row((3, "z"))
        assert table.content_digest() != before
        assert table.content_digest() == make_table(
            rows=((1, "x"), (2, "y"), (3, "z"))
        ).content_digest()

    def test_set_column_data_drops_the_memo(self):
        table = make_table()
        before = table.content_digest()
        table.set_column_data("a", [1, 3])
        assert table.content_digest() != before
        table.set_column_data("a", [1, 2])
        assert table.content_digest() == before

    def test_deepcopy_carries_an_equal_digest_and_its_own_memo(self):
        table = make_table()
        before = table.content_digest()
        clone = copy.deepcopy(table)
        assert clone.content_digest() == before
        clone.append_row((3, "z"))
        assert clone.content_digest() != before
        assert table.content_digest() == before


class TestSensitivity:
    """Changes a sloppy columnar encoding would alias."""

    BASE = ((1, "x"), (2, "y"))

    @pytest.mark.parametrize(
        "changed",
        [
            pytest.param(make_table(rows=((2, "x"), (1, "y"))),
                         id="value-moved-between-rows"),
            pytest.param(make_table(rows=(("x", 1), (2, "y"))),
                         id="value-moved-between-columns"),
            pytest.param(make_table(rows=(("1", "x"), (2, "y"))),
                         id="int-vs-its-string"),
            pytest.param(make_table(rows=((1, None), (2, "y"))),
                         id="null"),
            pytest.param(make_table(columns=("a", "c")),
                         id="renamed-column"),
            pytest.param(make_table(name="u"), id="renamed-table"),
            pytest.param(make_table(rows=((1, "x"),)), id="fewer-rows"),
        ],
    )
    def test_differs_from_base(self, changed):
        assert fingerprint(changed) != fingerprint(make_table(rows=self.BASE))

    def test_none_is_not_the_string_none(self):
        assert fingerprint(make_table(rows=((1, None),))) != fingerprint(
            make_table(rows=((1, "None"),))
        )

    def test_column_type_is_part_of_the_schema(self):
        as_int = Table("t", [Column("a", INT)])
        as_char = Table("t", [Column("a", char(8))])
        assert fingerprint(as_int) != fingerprint(as_char)

    def test_two_tables_swapping_names(self):
        one = fingerprint(
            make_table("p", rows=((1, "x"),)), make_table("q", rows=((2, "y"),))
        )
        swapped = fingerprint(
            make_table("q", rows=((1, "x"),)), make_table("p", rows=((2, "y"),))
        )
        assert one != swapped

    def test_seed_and_min_sample_rows(self):
        base = fingerprint(make_table(), seed=1, min_sample_rows=10)
        assert fingerprint(make_table(), seed=2, min_sample_rows=10) != base
        assert fingerprint(make_table(), seed=1, min_sample_rows=11) != base
        assert fingerprint(make_table(), seed=1, min_sample_rows=10) == base


def test_equal_across_processes_and_hash_seeds(run_with_hashseed):
    script = (
        "from repro.datasets.sales import sales_database\n"
        "from repro.parallel import sample_fingerprint\n"
        "from repro.sampling import SampleManager\n"
        "db = sales_database(scale=0.02, seed=3)\n"
        "print(sample_fingerprint(SampleManager(db, seed=7)))\n"
    )
    seen = {run_with_hashseed(script, seed) for seed in ("0", "4242")}
    here = sample_fingerprint(
        SampleManager(sales_database(scale=0.02, seed=3), seed=7)
    )
    assert seen == {here}


def test_one_session_scans_each_table_once(tmp_path):
    """Every preparing run gets a fresh estimator, so the fingerprint
    its persistent cache keys embed is asked for per run — but the
    tables it digests outlive the runs.  A session without a cache
    directory holds no cache, and never asks."""
    db = sales_database(scale=0.02)
    wl = sales_workload(db)
    lists = count_scans(db)
    Session(db, wl, budget_fraction=0.15).tune()
    assert {c.reprs for c in lists} == {0}
    session = Session(db, wl, budget_fraction=0.15, cache_dir=str(tmp_path))
    session.tune()
    session.tune()
    session.retune()
    Session(db, wl, budget_fraction=0.15, cache_dir=str(tmp_path)).tune()
    assert {c.reprs for c in lists} == {1}
