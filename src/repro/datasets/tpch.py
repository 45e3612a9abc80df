"""TPC-H-shaped dataset and workload.

Generates the eight TPC-H tables at a configurable (scaled-down) size,
with an optional Zipf skew parameter z (the paper evaluates z in
{0, 1, 3}), plus the 22-query analytic workload — each query expressed in
the library's SQL subset with the access patterns (date ranges, segment
filters, FK joins, group-bys) of its TPC-H counterpart — and the two bulk
load statements of the paper's update side.

``scale=1.0`` is 1/100 of TPC-H SF1 (lineitem 60k rows), which keeps the
byte-level compression measurements fast while preserving value
distributions.
"""

from __future__ import annotations

import random

from repro.catalog import (
    Column,
    Database,
    IntType,
    Table,
    char,
    DATE,
    decimal,
    varchar,
)
from repro.datasets.zipf import ZipfSampler, randbelow
from repro.workload.parser import date_to_days, parse_statement
from repro.workload.query import Workload

INT32 = IntType(4)

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDEAST"]
NATIONS = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
    "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"]
SHIPMODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
SHIPINSTRUCT = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]
TYPES = [
    f"{a} {b} {c}"
    for a in ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
    for b in ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
    for c in ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
]

DATE_LO = date_to_days("1992-01-01")
DATE_HI = date_to_days("1998-08-02")
#: lineitems shipped after this day are still open (l_linestatus "O")
LINESTATUS_OPEN_AFTER = date_to_days("1995-06-17")


def tpch_database(scale: float = 1.0, z: float = 0.0,
                  seed: int = 19920101) -> Database:
    """Generate the TPC-H tables.

    Column-wise: each table's values are drawn into one list per column
    and handed over with :meth:`Table.set_column_data`.  One RNG is
    threaded through every table, row by row, in a fixed order of draws
    within a row; the loops below keep that order (every table's
    :meth:`Table.content_digest` is pinned in
    ``tests/test_dataset_digests.py``).

    Args:
        scale: 1.0 = lineitem 60k rows (1/100 of TPC-H SF1).
        z: Zipf skew of attribute value choices (0 = uniform, as TPC-H).
        seed: RNG seed (generation is fully deterministic).
    """
    rng = random.Random(seed)
    below = randbelow(rng)
    uniform = rng.random
    db = Database(f"tpch_s{scale}_z{z}")

    n_supplier = max(10, int(100 * scale))
    n_part = max(50, int(2000 * scale))
    n_customer = max(50, int(1500 * scale))
    n_orders = max(200, int(15000 * scale))
    n_lineitem = max(800, int(60000 * scale))
    n_partsupp = max(100, int(8000 * scale))

    def zipf(n: int):
        return ZipfSampler(n, z, rng).sample

    def load(table: Table, *columns: list) -> None:
        for col, values in zip(table.columns, columns):
            table.set_column_data(col.name, values)
        db.add_table(table)

    # region -----------------------------------------------------------
    region = Table(
        "region",
        [Column("r_regionkey", INT32), Column("r_name", char(12))],
        primary_key=("r_regionkey",),
    )
    load(region, list(range(len(REGIONS))), list(REGIONS))

    # nation -----------------------------------------------------------
    nation = Table(
        "nation",
        [
            Column("n_nationkey", INT32),
            Column("n_name", char(16)),
            Column("n_regionkey", INT32),
        ],
        primary_key=("n_nationkey",),
    )
    load(nation, list(range(len(NATIONS))), list(NATIONS),
         [i % len(REGIONS) for i in range(len(NATIONS))])

    # supplier ----------------------------------------------------------
    supplier = Table(
        "supplier",
        [
            Column("s_suppkey", INT32),
            Column("s_name", char(18)),
            Column("s_nationkey", INT32),
            Column("s_acctbal", decimal()),
        ],
        primary_key=("s_suppkey",),
    )
    s_nationkey, s_acctbal = [], []
    for _ in range(n_supplier):
        s_nationkey.append(below(len(NATIONS)))
        s_acctbal.append(below(1099998) - 99999)
    load(supplier, list(range(n_supplier)),
         [f"Supplier#{i:09d}" for i in range(n_supplier)],
         s_nationkey, s_acctbal)

    # part ---------------------------------------------------------------
    part = Table(
        "part",
        [
            Column("p_partkey", INT32),
            Column("p_name", varchar(32)),
            Column("p_brand", char(10)),
            Column("p_type", char(26)),
            Column("p_size", INT32),
            Column("p_retailprice", decimal()),
        ],
        primary_key=("p_partkey",),
    )
    brand = zipf(len(BRANDS))
    ptype = zipf(len(TYPES))
    p_brand, p_type, p_size, p_retailprice = [], [], [], []
    for i in range(n_part):
        p_brand.append(BRANDS[brand()])
        p_type.append(TYPES[ptype()])
        p_size.append(1 + below(50))
        p_retailprice.append(90000 + (i % 200) * 100 + below(1000))
    load(part, list(range(n_part)),
         [f"part {i} colored" for i in range(n_part)],
         p_brand, p_type, p_size, p_retailprice)

    # customer -----------------------------------------------------------
    customer = Table(
        "customer",
        [
            Column("c_custkey", INT32),
            Column("c_name", char(18)),
            Column("c_nationkey", INT32),
            Column("c_acctbal", decimal()),
            Column("c_mktsegment", char(10)),
        ],
        primary_key=("c_custkey",),
    )
    segment = zipf(len(SEGMENTS))
    c_nationkey, c_acctbal, c_mktsegment = [], [], []
    for _ in range(n_customer):
        c_nationkey.append(below(len(NATIONS)))
        c_acctbal.append(below(1099998) - 99999)
        c_mktsegment.append(SEGMENTS[segment()])
    load(customer, list(range(n_customer)),
         [f"Customer#{i:09d}" for i in range(n_customer)],
         c_nationkey, c_acctbal, c_mktsegment)

    # orders --------------------------------------------------------------
    orders = Table(
        "orders",
        [
            Column("o_orderkey", INT32),
            Column("o_custkey", INT32),
            Column("o_orderstatus", char(1)),
            Column("o_totalprice", decimal()),
            Column("o_orderdate", DATE),
            Column("o_orderpriority", char(16)),
            Column("o_clerk", char(16)),
            Column("o_shippriority", INT32),
        ],
        primary_key=("o_orderkey",),
    )
    cust = zipf(n_customer)
    odate_offset = zipf(DATE_HI - DATE_LO)
    priority = zipf(len(PRIORITIES))
    n_clerks = max(10, n_orders // 15)
    o_custkey, o_orderstatus, o_totalprice = [], [], []
    o_orderdate, o_orderpriority, clerks = [], [], []
    for _ in range(n_orders):
        o_orderdate.append(DATE_LO + odate_offset())
        o_custkey.append(cust())
        o_orderstatus.append("OFP"[below(3)])
        o_totalprice.append(10000 + below(40000000))
        o_orderpriority.append(PRIORITIES[priority()])
        clerks.append(below(n_clerks))
    load(orders, list(range(n_orders)), o_custkey, o_orderstatus,
         o_totalprice, o_orderdate, o_orderpriority,
         [f"Clerk#{c:09d}" for c in clerks], [0] * n_orders)

    # lineitem --------------------------------------------------------------
    lineitem = Table(
        "lineitem",
        [
            Column("l_orderkey", INT32),
            Column("l_partkey", INT32),
            Column("l_suppkey", INT32),
            Column("l_linenumber", INT32),
            Column("l_quantity", decimal()),
            Column("l_extendedprice", decimal()),
            Column("l_discount", decimal()),
            Column("l_tax", decimal()),
            Column("l_returnflag", char(1)),
            Column("l_linestatus", char(1)),
            Column("l_shipdate", DATE),
            Column("l_commitdate", DATE),
            Column("l_receiptdate", DATE),
            Column("l_shipinstruct", char(26)),
            Column("l_shipmode", char(10)),
        ],
        primary_key=("l_orderkey", "l_linenumber"),
    )
    partkey = zipf(n_part)
    suppkey = zipf(n_supplier)
    shipmode = zipf(len(SHIPMODES))
    line_per_order = max(1, n_lineitem // n_orders)
    cols = [[] for _ in lineitem.columns]
    (l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity,
     l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus,
     l_shipdate, l_commitdate, l_receiptdate, l_shipinstruct,
     l_shipmode) = (c.append for c in cols)
    produced = 0
    for okey, odate in enumerate(o_orderdate):
        if produced >= n_lineitem:
            break
        lines = min(1 + below(2 * line_per_order), n_lineitem - produced)
        for ln in range(1, lines + 1):
            ship = odate + 1 + below(120)
            if ship > DATE_HI:
                ship = DATE_HI
            qty = 1 + below(50)
            l_orderkey(okey)
            l_linenumber(ln)
            l_quantity(qty * 100)
            l_extendedprice(qty * (90000 + below(10000)))
            l_returnflag("R" if uniform() < 0.25 else "N")
            l_partkey(partkey())
            l_suppkey(suppkey())
            l_discount(below(11))
            l_tax(below(9))
            l_linestatus("O" if ship > LINESTATUS_OPEN_AFTER else "F")
            l_shipdate(ship)
            commit = ship + below(30)
            l_commitdate(commit if commit < DATE_HI else DATE_HI)
            receipt = ship + below(30)
            l_receiptdate(receipt if receipt < DATE_HI else DATE_HI)
            l_shipinstruct(SHIPINSTRUCT[below(4)])
            l_shipmode(SHIPMODES[shipmode()])
        produced += lines
    load(lineitem, *cols)

    # partsupp ---------------------------------------------------------------
    partsupp = Table(
        "partsupp",
        [
            Column("ps_partkey", INT32),
            Column("ps_suppkey", INT32),
            Column("ps_availqty", INT32),
            Column("ps_supplycost", decimal()),
        ],
        primary_key=("ps_partkey", "ps_suppkey"),
    )
    ps_availqty, ps_supplycost = [], []
    for _ in range(n_partsupp):
        ps_availqty.append(below(10000))
        ps_supplycost.append(100 + below(100000))
    load(partsupp, [i % n_part for i in range(n_partsupp)],
         [(i * 7) % n_supplier for i in range(n_partsupp)],
         ps_availqty, ps_supplycost)

    # foreign keys -------------------------------------------------------
    db.add_foreign_key("nation", "n_regionkey", "region", "r_regionkey")
    db.add_foreign_key("supplier", "s_nationkey", "nation", "n_nationkey")
    db.add_foreign_key("customer", "c_nationkey", "nation", "n_nationkey")
    db.add_foreign_key("orders", "o_custkey", "customer", "c_custkey")
    db.add_foreign_key("lineitem", "l_orderkey", "orders", "o_orderkey")
    db.add_foreign_key("lineitem", "l_partkey", "part", "p_partkey")
    db.add_foreign_key("lineitem", "l_suppkey", "supplier", "s_suppkey")
    db.add_foreign_key("partsupp", "ps_partkey", "part", "p_partkey")
    db.add_foreign_key("partsupp", "ps_suppkey", "supplier", "s_suppkey")
    return db


#: The 22 analytic statements (paper: "TPC-H ... 22 analytic queries"),
#: each capturing its TPC-H counterpart's indexable access pattern within
#: the library's SQL subset.
TPCH_QUERY_SQL: dict[str, str] = {
    "Q1": """SELECT l_returnflag, l_linestatus, SUM(l_quantity),
             SUM(l_extendedprice), COUNT(*) FROM lineitem
             WHERE l_shipdate <= DATE '1998-08-01'
             GROUP BY l_returnflag, l_linestatus""",
    "Q2": """SELECT s_name, MIN(ps_supplycost) FROM partsupp
             JOIN supplier ON ps_suppkey = s_suppkey
             WHERE ps_availqty > 5000 GROUP BY s_name""",
    "Q3": """SELECT l_orderkey, SUM(l_extendedprice) FROM lineitem
             JOIN orders ON l_orderkey = o_orderkey
             JOIN customer ON o_custkey = c_custkey
             WHERE c_mktsegment = 'BUILDING'
             AND o_orderdate < DATE '1995-03-15'
             AND l_shipdate > DATE '1995-03-15'
             GROUP BY l_orderkey""",
    "Q4": """SELECT o_orderpriority, COUNT(*) FROM orders
             WHERE o_orderdate BETWEEN DATE '1993-07-01' AND DATE '1993-09-30'
             GROUP BY o_orderpriority""",
    "Q5": """SELECT n_name, SUM(l_extendedprice) FROM lineitem
             JOIN orders ON l_orderkey = o_orderkey
             JOIN customer ON o_custkey = c_custkey
             JOIN nation ON c_nationkey = n_nationkey
             WHERE o_orderdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'
             GROUP BY n_name""",
    "Q6": """SELECT SUM(l_extendedprice * l_discount) FROM lineitem
             WHERE l_shipdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'
             AND l_discount BETWEEN 5 AND 7 AND l_quantity < 2400""",
    "Q7": """SELECT n_name, SUM(l_extendedprice) FROM lineitem
             JOIN supplier ON l_suppkey = s_suppkey
             JOIN nation ON s_nationkey = n_nationkey
             WHERE l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
             GROUP BY n_name""",
    "Q8": """SELECT o_orderdate, SUM(l_extendedprice) FROM lineitem
             JOIN orders ON l_orderkey = o_orderkey
             JOIN part ON l_partkey = p_partkey
             WHERE p_type = 'ECONOMY ANODIZED STEEL'
             AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
             GROUP BY o_orderdate""",
    "Q9": """SELECT n_name, SUM(l_extendedprice) FROM lineitem
             JOIN supplier ON l_suppkey = s_suppkey
             JOIN nation ON s_nationkey = n_nationkey
             GROUP BY n_name""",
    "Q10": """SELECT c_name, SUM(l_extendedprice) FROM lineitem
              JOIN orders ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
              WHERE o_orderdate BETWEEN DATE '1993-10-01' AND DATE '1993-12-31'
              AND l_returnflag = 'R' GROUP BY c_name""",
    "Q11": """SELECT ps_partkey, SUM(ps_supplycost * ps_availqty)
              FROM partsupp JOIN supplier ON ps_suppkey = s_suppkey
              WHERE s_nationkey = 7 GROUP BY ps_partkey""",
    "Q12": """SELECT l_shipmode, COUNT(*) FROM lineitem
              JOIN orders ON l_orderkey = o_orderkey
              WHERE l_shipmode IN ('MAIL', 'SHIP')
              AND l_receiptdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'
              GROUP BY l_shipmode""",
    "Q13": """SELECT c_custkey, COUNT(*) FROM orders
              JOIN customer ON o_custkey = c_custkey
              GROUP BY c_custkey""",
    "Q14": """SELECT SUM(l_extendedprice * l_discount) FROM lineitem
              JOIN part ON l_partkey = p_partkey
              WHERE l_shipdate BETWEEN DATE '1995-09-01' AND DATE '1995-09-30'""",
    "Q15": """SELECT l_suppkey, SUM(l_extendedprice) FROM lineitem
              WHERE l_shipdate BETWEEN DATE '1996-01-01' AND DATE '1996-03-31'
              GROUP BY l_suppkey""",
    "Q16": """SELECT p_brand, p_type, COUNT(*) FROM partsupp
              JOIN part ON ps_partkey = p_partkey
              WHERE p_size IN (9, 19, 49) GROUP BY p_brand, p_type""",
    "Q17": """SELECT SUM(l_extendedprice) FROM lineitem
              JOIN part ON l_partkey = p_partkey
              WHERE p_brand = 'Brand#23' AND l_quantity < 1000""",
    "Q18": """SELECT c_name, o_orderdate, SUM(l_quantity) FROM lineitem
              JOIN orders ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
              WHERE o_totalprice > 30000000
              GROUP BY c_name, o_orderdate""",
    "Q19": """SELECT SUM(l_extendedprice) FROM lineitem
              JOIN part ON l_partkey = p_partkey
              WHERE p_brand = 'Brand#12' AND l_quantity BETWEEN 100 AND 1100
              AND l_shipmode IN ('AIR', 'REG AIR')""",
    "Q20": """SELECT s_name, COUNT(*) FROM partsupp
              JOIN supplier ON ps_suppkey = s_suppkey
              WHERE ps_availqty > 3000 GROUP BY s_name""",
    "Q21": """SELECT s_name, COUNT(*) FROM lineitem
              JOIN supplier ON l_suppkey = s_suppkey
              WHERE l_returnflag = 'R' AND l_receiptdate > DATE '1997-01-01'
              GROUP BY s_name""",
    "Q22": """SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM customer
              WHERE c_acctbal > 700000 GROUP BY c_nationkey""",
}


def tpch_workload(
    database: Database,
    select_weight: float = 1.0,
    insert_weight: float = 1.0,
    bulk_fraction: float = 0.10,
) -> Workload:
    """The 22 queries plus the two fact-table bulk loads.

    Args:
        select_weight / insert_weight: the paper's SELECT-intensive vs
            INSERT-intensive workload knob.
        bulk_fraction: bulk-load size as a fraction of the fact tables.
    """
    workload = Workload()
    for name, sql in TPCH_QUERY_SQL.items():
        stmt = parse_statement(sql)
        stmt.validate(database)
        workload.add(stmt, weight=select_weight, name=name)
    n_line = int(database.table("lineitem").num_rows * bulk_fraction)
    n_ord = int(database.table("orders").num_rows * bulk_fraction)
    workload.add(
        parse_statement(f"INSERT INTO lineitem BULK {max(1, n_line)}"),
        weight=insert_weight,
        name="BULK_LINEITEM",
    )
    workload.add(
        parse_statement(f"INSERT INTO orders BULK {max(1, n_ord)}"),
        weight=insert_weight,
        name="BULK_ORDERS",
    )
    return workload
