"""Tests for Table and Database catalog objects."""

import random

import pytest

from repro.catalog import Column, Database, INT, Table, build_database, char
from repro.errors import CatalogError


def make_table(n=100):
    t = Table(
        "t",
        [Column("a", INT), Column("b", char(8))],
        primary_key=("a",),
    )
    for i in range(n):
        t.append_row((i, f"v{i % 7}"))
    return t


class TestTable:
    def test_row_width(self):
        assert make_table(0).row_width == 16

    def test_num_rows(self):
        assert make_table(5).num_rows == 5

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            Table("x", [Column("a", INT), Column("a", INT)])

    def test_empty_columns_rejected(self):
        with pytest.raises(CatalogError):
            Table("x", [])

    def test_unknown_pk_rejected(self):
        with pytest.raises(CatalogError):
            Table("x", [Column("a", INT)], primary_key=("zz",))

    def test_append_wrong_arity(self):
        t = make_table(0)
        with pytest.raises(CatalogError):
            t.append_row((1,))

    def test_extend_rows_is_all_or_none(self):
        t = make_table(2)
        digest = t.content_digest()
        with pytest.raises(CatalogError):
            t.extend_rows([(2, "v2"), (3, "v3"), (4,), (5, "v5")])
        assert t.num_rows == 2
        assert t.rows() == [(0, "v0"), (1, "v1")]
        assert t.content_digest() == digest
        t.extend_rows(iter([(2, "v2"), (3, "v3")]))
        assert t.rows()[2:] == [(2, "v2"), (3, "v3")]
        assert t.content_digest() != digest

    def test_iter_rows_projection(self):
        t = make_table(3)
        assert list(t.iter_rows(["b"])) == [("v0",), ("v1",), ("v2",)]

    def test_rows_full(self):
        t = make_table(2)
        assert t.rows() == [(0, "v0"), (1, "v1")]

    def test_unknown_column(self):
        with pytest.raises(CatalogError):
            make_table(1).column_values("nope")

    def test_set_column_data_length_check(self):
        t = make_table(3)
        with pytest.raises(CatalogError):
            t.set_column_data("a", [1, 2])

    def test_project(self):
        t = make_table(4)
        p = t.project(["b"])
        assert p.column_names == ("b",)
        assert p.num_rows == 4

    def test_empty_clone(self):
        c = make_table(5).empty_clone("c")
        assert c.num_rows == 0
        assert c.column_names == ("a", "b")
        assert c.primary_key == ("a",)


class TestSampling:
    def test_sample_fraction_bounds(self):
        t = make_table(10)
        with pytest.raises(CatalogError):
            t.sample(0.0, random.Random(1))
        with pytest.raises(CatalogError):
            t.sample(1.5, random.Random(1))

    def test_sample_full(self):
        t = make_table(10)
        s = t.sample(1.0, random.Random(1))
        assert s.num_rows == 10

    def test_sample_deterministic(self):
        t = make_table(1000)
        s1 = t.sample(0.1, random.Random(42))
        s2 = t.sample(0.1, random.Random(42))
        assert s1.rows() == s2.rows()

    def test_sample_size_reasonable(self):
        t = make_table(5000)
        s = t.sample(0.1, random.Random(7))
        assert 350 <= s.num_rows <= 650

    def test_sample_rows_come_from_table(self):
        t = make_table(200)
        s = t.sample(0.2, random.Random(3))
        original = set(t.rows())
        assert set(s.rows()) <= original


class TestDatabase:
    def test_duplicate_table_rejected(self):
        db = Database("d")
        db.add_table(make_table(1))
        with pytest.raises(CatalogError):
            db.add_table(make_table(1))

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Database("d").table("zz")

    def test_foreign_key_validates_columns(self):
        db = Database("d")
        db.add_table(make_table(1))
        other = Table("o", [Column("k", INT)])
        db.add_table(other)
        with pytest.raises(CatalogError):
            db.add_foreign_key("t", "nope", "o", "k")
        fk = db.add_foreign_key("t", "a", "o", "k")
        assert fk.src_table == "t"

    def test_fk_closure(self, small_db):
        closure = small_db.foreign_key_closure("fact")
        assert [(fk.src_table, fk.dst_table) for fk in closure] == [
            ("fact", "dim")
        ]

    def test_total_data_bytes(self, small_db):
        fact = small_db.table("fact")
        dim = small_db.table("dim")
        expected = (
            fact.num_rows * fact.row_width + dim.num_rows * dim.row_width
        )
        assert small_db.total_data_bytes() == expected

    def test_build_database_helper(self):
        db = build_database(
            "x",
            [make_table(1)],
        )
        assert db.has_table("t")
