"""The "Sales" workload: a synthetic stand-in for the paper's real-world
customer database (Appendix D.2: "a real sales database (Sales) which has
50 analytic queries and two bulk load statements on fact tables").

The paper does not publish the customer's schema, so this module builds a
star schema with the same *shape*: a wide sales fact table (with heavy
categorical redundancy — exactly what dictionary compression likes),
three dimensions, 50 parameterized analytic queries over 10 templates,
and two bulk loads.
"""

from __future__ import annotations

import random

from repro.catalog import Column, Database, IntType, Table, DATE, char, decimal
from repro.datasets.zipf import ZipfSampler, randbelow
from repro.workload.parser import date_to_days, parse_statement
from repro.workload.query import Workload

INT32 = IntType(4)

STATES = ["CA", "NY", "TX", "WA", "FL", "IL", "MA", "GA", "OH", "NC"]
REGIONS = {"CA": "WEST", "WA": "WEST", "TX": "SOUTH", "FL": "SOUTH",
           "GA": "SOUTH", "NY": "EAST", "MA": "EAST", "IL": "MIDWEST",
           "OH": "MIDWEST", "NC": "EAST"}
CATEGORIES = ["ELECTRONICS", "GROCERY", "CLOTHING", "HOME", "SPORTS",
              "TOYS", "AUTO", "GARDEN"]
BRANDS = [f"BRAND_{i:02d}" for i in range(30)]
CHANNELS = ["STORE", "WEB", "PHONE", "PARTNER"]
PROMOS = ["NONE", "SPRING", "SUMMER", "FALL", "HOLIDAY"]
SEGMENTS = ["CONSUMER", "CORPORATE", "SMALLBIZ"]

DATE_LO = date_to_days("2007-01-01")
DATE_HI = date_to_days("2009-12-31")


def sales_database(scale: float = 1.0, z: float = 0.5,
                   seed: int = 20090101) -> Database:
    """Generate the Sales star schema.

    Column-wise, drawing from one RNG in a fixed order per row, like
    :func:`repro.datasets.tpch.tpch_database`.

    Args:
        scale: 1.0 = 40k fact rows.
        z: Zipf skew of categorical choices (real sales data is skewed).
        seed: RNG seed.
    """
    rng = random.Random(seed)
    below = randbelow(rng)
    db = Database(f"sales_s{scale}")

    n_stores = max(20, int(200 * scale))
    n_products = max(100, int(1500 * scale))
    n_customers = max(100, int(3000 * scale))
    n_sales = max(1000, int(40000 * scale))

    def zipf(n: int, skew: float = z):
        return ZipfSampler(n, skew, rng).sample

    def load(table: Table, *columns: list) -> None:
        for col, values in zip(table.columns, columns):
            table.set_column_data(col.name, values)
        db.add_table(table)

    stores = Table(
        "stores",
        [
            Column("st_storekey", INT32),
            Column("st_name", char(16)),
            Column("st_city", char(16)),
            Column("st_state", char(2)),
            Column("st_region", char(8)),
        ],
        primary_key=("st_storekey",),
    )
    st_state = [STATES[i % len(STATES)] for i in range(n_stores)]
    load(stores, list(range(n_stores)),
         [f"Store {i:05d}" for i in range(n_stores)],
         [f"City{i % 40:03d}" for i in range(n_stores)],
         st_state, [REGIONS[state] for state in st_state])

    products = Table(
        "products",
        [
            Column("pr_productkey", INT32),
            Column("pr_name", char(20)),
            Column("pr_category", char(16)),
            Column("pr_brand", char(12)),
            Column("pr_price", decimal()),
        ],
        primary_key=("pr_productkey",),
    )
    category = zipf(len(CATEGORIES))
    brand = zipf(len(BRANDS))
    pr_category, pr_brand, pr_price = [], [], []
    for _ in range(n_products):
        pr_category.append(CATEGORIES[category()])
        pr_brand.append(BRANDS[brand()])
        pr_price.append(500 + below(50000))
    load(products, list(range(n_products)),
         [f"Product {i:06d}" for i in range(n_products)],
         pr_category, pr_brand, pr_price)

    customers = Table(
        "customers",
        [
            Column("cu_custkey", INT32),
            Column("cu_name", char(18)),
            Column("cu_segment", char(10)),
            Column("cu_state", char(2)),
        ],
        primary_key=("cu_custkey",),
    )
    segment = zipf(len(SEGMENTS))
    cu_segment, cu_state = [], []
    for _ in range(n_customers):
        cu_segment.append(SEGMENTS[segment()])
        cu_state.append(STATES[below(len(STATES))])
    load(customers, list(range(n_customers)),
         [f"Customer {i:07d}" for i in range(n_customers)],
         cu_segment, cu_state)

    sales = Table(
        "sales",
        [
            Column("sa_salekey", IntType(8)),
            Column("sa_storekey", INT32),
            Column("sa_productkey", INT32),
            Column("sa_custkey", INT32),
            Column("sa_date", DATE),
            Column("sa_quantity", INT32),
            Column("sa_unitprice", decimal()),
            Column("sa_discount", decimal()),
            Column("sa_total", decimal()),
            Column("sa_promo", char(8)),
            Column("sa_channel", char(8)),
            Column("sa_status", char(1)),
        ],
        primary_key=("sa_salekey",),
    )
    store = zipf(n_stores)
    product = zipf(n_products)
    cust = zipf(n_customers)
    day = zipf(DATE_HI - DATE_LO, z / 2.0)
    channel = zipf(len(CHANNELS))
    promo = zipf(len(PROMOS))
    cols = [[] for _ in sales.columns]
    (sa_salekey, sa_storekey, sa_productkey, sa_custkey, sa_date,
     sa_quantity, sa_unitprice, sa_discount, sa_total, sa_promo,
     sa_channel, sa_status) = (c.append for c in cols)
    discounts = (0, 0, 0, 5, 10, 15, 20)
    for i in range(n_sales):
        qty = 1 + below(12)
        price = 500 + below(50000)
        discount = discounts[below(7)]
        sa_salekey(i)
        sa_storekey(store())
        sa_productkey(product())
        sa_custkey(cust())
        sa_date(DATE_LO + day())
        sa_quantity(qty)
        sa_unitprice(price)
        sa_discount(discount)
        sa_total(qty * price * (100 - discount) // 100)
        sa_promo(PROMOS[promo()])
        sa_channel(CHANNELS[channel()])
        sa_status("CCCCR"[below(5)])
    load(sales, *cols)

    db.add_foreign_key("sales", "sa_storekey", "stores", "st_storekey")
    db.add_foreign_key("sales", "sa_productkey", "products", "pr_productkey")
    db.add_foreign_key("sales", "sa_custkey", "customers", "cu_custkey")
    return db


#: 10 query templates; 5 parameterizations each = the 50 analytic queries.
_TEMPLATES = [
    # 1. revenue by state in a quarter
    """SELECT st_state, SUM(sa_total) FROM sales
       JOIN stores ON sa_storekey = st_storekey
       WHERE sa_date BETWEEN DATE '{lo}' AND DATE '{hi}'
       GROUP BY st_state""",
    # 2. channel performance for a promo
    """SELECT sa_channel, SUM(sa_total), COUNT(*) FROM sales
       WHERE sa_promo = '{promo}' GROUP BY sa_channel""",
    # 3. category revenue in a date range
    """SELECT pr_category, SUM(sa_total) FROM sales
       JOIN products ON sa_productkey = pr_productkey
       WHERE sa_date BETWEEN DATE '{lo}' AND DATE '{hi}'
       GROUP BY pr_category""",
    # 4. discount impact scan
    """SELECT SUM(sa_unitprice * sa_quantity) FROM sales
       WHERE sa_discount >= {disc} AND sa_date >= DATE '{lo}'""",
    # 5. top customers of a segment
    """SELECT cu_custkey, SUM(sa_total) FROM sales
       JOIN customers ON sa_custkey = cu_custkey
       WHERE cu_segment = '{segment}' GROUP BY cu_custkey""",
    # 6. store daily totals
    """SELECT sa_date, SUM(sa_total) FROM sales
       WHERE sa_storekey = {store} GROUP BY sa_date ORDER BY sa_date""",
    # 7. brand revenue for a channel
    """SELECT pr_brand, SUM(sa_total) FROM sales
       JOIN products ON sa_productkey = pr_productkey
       WHERE sa_channel = '{channel}' GROUP BY pr_brand""",
    # 8. returns rate by region
    """SELECT st_region, COUNT(*) FROM sales
       JOIN stores ON sa_storekey = st_storekey
       WHERE sa_status = 'R' AND sa_date >= DATE '{lo}'
       GROUP BY st_region""",
    # 9. quantity histogram for a category month
    """SELECT sa_quantity, COUNT(*) FROM sales
       JOIN products ON sa_productkey = pr_productkey
       WHERE pr_category = '{category}'
       AND sa_date BETWEEN DATE '{lo}' AND DATE '{hi}'
       GROUP BY sa_quantity""",
    # 10. promo revenue by state
    """SELECT cu_state, SUM(sa_total) FROM sales
       JOIN customers ON sa_custkey = cu_custkey
       WHERE sa_promo = '{promo}' AND sa_discount > {disc}
       GROUP BY cu_state""",
]

_QUARTERS = [
    ("2007-01-01", "2007-03-31"),
    ("2007-07-01", "2007-09-30"),
    ("2008-01-01", "2008-03-31"),
    ("2008-10-01", "2008-12-31"),
    ("2009-04-01", "2009-06-30"),
]


def sales_queries() -> list[tuple[str, str]]:
    """The 50 (name, sql) analytic queries."""
    out: list[tuple[str, str]] = []
    for v in range(5):
        lo, hi = _QUARTERS[v]
        params = {
            "lo": lo,
            "hi": hi,
            "promo": PROMOS[1 + v % (len(PROMOS) - 1)],
            "disc": (5, 10, 15, 5, 10)[v],
            "segment": SEGMENTS[v % len(SEGMENTS)],
            "store": 3 + 7 * v,
            "channel": CHANNELS[v % len(CHANNELS)],
            "category": CATEGORIES[v % len(CATEGORIES)],
        }
        for ti, template in enumerate(_TEMPLATES):
            sql = template.format(**params)
            out.append((f"S{ti + 1:02d}_v{v + 1}", sql))
    return out


def sales_workload(
    database: Database,
    select_weight: float = 1.0,
    insert_weight: float = 1.0,
    bulk_fraction: float = 0.10,
) -> Workload:
    """The 50 analytic queries plus two bulk loads on the fact table."""
    workload = Workload()
    for name, sql in sales_queries():
        stmt = parse_statement(sql)
        stmt.validate(database)
        workload.add(stmt, weight=select_weight, name=name)
    n = max(1, int(database.table("sales").num_rows * bulk_fraction))
    workload.add(
        parse_statement(f"INSERT INTO sales BULK {n}"),
        weight=insert_weight,
        name="BULK_SALES_1",
    )
    workload.add(
        parse_statement(f"INSERT INTO sales BULK {max(1, n // 2)}"),
        weight=insert_weight,
        name="BULK_SALES_2",
    )
    return workload
