"""End-to-end downstream-user scenario: define a schema, load data,
write the workload as SQL text, tune it, and validate the outcome.

This is the full public-API path a user of the library follows, glued
together in one place: catalog -> parser -> advisor -> executor ->
validation."""

import random

import pytest

from repro import (
    Column,
    Database,
    DatabaseStats,
    Executor,
    SizeEstimator,
    Table,
    Workload,
    parse_statement,
    validate_recommendation,
)
from repro.api import tune
from repro.catalog.datatypes import DateType, IntType
from repro.catalog import char
from repro.storage.index_build import IndexKind

SQL_WORKLOAD = [
    ("q_daily_sales",
     "SELECT SUM(amount) FROM orders "
     "WHERE status = 'shipped' AND day BETWEEN "
     "DATE '2020-02-01' AND DATE '2020-04-01'",
     8.0),
    ("q_by_region",
     "SELECT region, SUM(amount) FROM orders "
     "WHERE status = 'open' GROUP BY region",
     4.0),
    ("q_top_orders",
     "SELECT id, amount FROM orders WHERE amount > 900000 "
     "ORDER BY amount",
     2.0),
    ("load", "INSERT INTO orders BULK 500", 1.0),
]


def build_orders(n_rows=6000, seed=17):
    rng = random.Random(seed)
    table = Table(
        "orders",
        [
            Column("id", IntType(8)),
            Column("day", DateType()),
            Column("status", char(8)),
            Column("region", char(6)),
            Column("amount", IntType(8)),
        ],
        primary_key=("id",),
    )
    statuses = ["open", "shipped", "billed"]
    regions = ["north", "south", "east", "west"]
    epoch_2020 = 18262
    for i in range(n_rows):
        table.append_row((
            i,
            epoch_2020 + rng.randrange(366),
            rng.choice(statuses),
            rng.choice(regions),
            rng.randrange(1_000_000),
        ))
    return table


@pytest.fixture(scope="module")
def database():
    db = Database("shop")
    db.add_table(build_orders())
    return db


@pytest.fixture(scope="module")
def workload(database):
    wl = Workload()
    for name, sql, weight in SQL_WORKLOAD:
        statement = parse_statement(sql)
        if statement.is_select:
            statement.validate(database)
        wl.add(statement, weight=weight, name=name)
    return wl


class TestSQLRoundTrip:
    def test_statements_parse_to_expected_shapes(self, workload):
        by_name = {ws.name: ws.statement for ws in workload}
        assert by_name["q_daily_sales"].predicates
        assert by_name["q_by_region"].group_by == ("region",)
        assert by_name["q_top_orders"].order_by == ("amount",)
        assert by_name["load"].n_rows == 500

    def test_executor_agrees_with_brute_force(self, database, workload):
        executor = Executor(database)
        query = next(
            ws.statement for ws in workload if ws.name == "q_by_region"
        )
        result = executor.execute(query)
        rows = dict(result.rows)
        table = database.table("orders")
        expected: dict[str, int] = {}
        for status, region, amount in table.iter_rows(
            ("status", "region", "amount")
        ):
            if status == "open":
                expected[region] = expected.get(region, 0) + amount
        assert rows == expected


class TestTuneCustomSchema:
    def test_tuning_improves_and_validates(self, database, workload):
        stats = DatabaseStats(database)
        estimator = SizeEstimator(database, stats=stats)
        budget = database.total_data_bytes() * 0.3
        result = tune(database, workload, budget,
                      estimator=estimator, stats=stats)
        assert result.improvement > 0.1
        report = validate_recommendation(
            result, database, workload, stats=stats, estimator=estimator
        )
        assert report.recommendation_holds
        assert report.budget_holds

    def test_recommended_keys_match_the_workload(self, database, workload):
        result = tune(database, workload,
                      database.total_data_bytes() * 0.3)
        keyed_columns = {
            c
            for ix in result.configuration
            if ix.kind is IndexKind.SECONDARY
            for c in ix.key_columns
        }
        # Every secondary key column should be one the workload filters,
        # groups, or orders on.
        assert keyed_columns <= {"status", "day", "region", "amount"}
