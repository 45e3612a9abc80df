"""Every bundled generator's output, pinned table by table.

Each cell names a generator call and the :meth:`Table.content_digest`
of every table it builds.  The digests were recorded from the
row-at-a-time generators that drew through ``random.randrange`` /
``choice``; the column-wise generators draw through
:func:`repro.datasets.zipf.randbelow` instead, so a pass here on a
given CPython proves that the inlined rejection draw consumes the
Mersenne Twister exactly as that version's ``randrange`` does.  The
grid covers TPC-H at Z in {0, 1, 3}, the benchmark ledger's TPC-H shape
(scale 2.0, Z = 1, seed 1), Sales at its default and a heavier skew,
and TPC-DS-lite.
"""

import pytest

from repro.datasets import sales_database, tpcds_lite_database, tpch_database

CELLS = {
    "tpch-0.2-z0": (
        lambda: tpch_database(scale=0.2, z=0.0),
        {
            "region":
                "b3c75232489533dfe9368069d8be15bfa107f656dc67f928eaf68d30ed4d6040",
            "nation":
                "17d95e891a47024a312150641633f49b7c2b79f9a472e9c672a7a5448ef726b4",
            "supplier":
                "551c452f2a0f38509c502a24f8819cbb26385e636f32fe49ee550ecfb3cdc011",
            "part":
                "492d9f8e2e179888c5f3104c33e15a65962e984a252dcc4ec7f77e6181dd12e3",
            "customer":
                "f1561b3a3bb2a2fe893205ea6563c971413aaec8e72d85602cd02a88c72bb7e8",
            "orders":
                "8cda69fbd188efd1cf2ba0cf9522c9a1851023f944da2ecb8a5037b406c69ea5",
            "lineitem":
                "cec9d9e71adfb945008345e7466c150d500f7dfc4329f8d5eb861305549bd703",
            "partsupp":
                "3396fd1642fec4de341edf9924b77ea45bd3fd480fa39cef82d34ae671d1abce",
        },
    ),
    "tpch-0.2-z1": (
        lambda: tpch_database(scale=0.2, z=1.0),
        {
            "region":
                "b3c75232489533dfe9368069d8be15bfa107f656dc67f928eaf68d30ed4d6040",
            "nation":
                "17d95e891a47024a312150641633f49b7c2b79f9a472e9c672a7a5448ef726b4",
            "supplier":
                "551c452f2a0f38509c502a24f8819cbb26385e636f32fe49ee550ecfb3cdc011",
            "part":
                "d388b5df0f04d6c792f8d3b4f0ebe0631764664a72d0698027437b3d71059b0d",
            "customer":
                "4fd0fc8ee0193ea157e065aef0338931d37b0d75afe87b6716fd743718aec5ba",
            "orders":
                "70fb44652361db45de682019e7cb075f7f129d8ba02083e0ab98978b48c830e8",
            "lineitem":
                "251d1395f84e1eac35568cb4f74af3c3af67e90a1b925e3b27f79387744a662a",
            "partsupp":
                "a92bc4dd746cbc6e67bba9e750e200a37c8e4f81732cbb7fc3b8fa9022570fa7",
        },
    ),
    "tpch-0.2-z3": (
        lambda: tpch_database(scale=0.2, z=3.0),
        {
            "region":
                "b3c75232489533dfe9368069d8be15bfa107f656dc67f928eaf68d30ed4d6040",
            "nation":
                "17d95e891a47024a312150641633f49b7c2b79f9a472e9c672a7a5448ef726b4",
            "supplier":
                "551c452f2a0f38509c502a24f8819cbb26385e636f32fe49ee550ecfb3cdc011",
            "part":
                "3d357e8a8792564f2336bd19ec805791b97fc9ebb9570039bd36d7465edd25cb",
            "customer":
                "906d2945cb2dfdbcd71bf5dca4853c9fc9b3da8476f3471b4c7b862e511a24cd",
            "orders":
                "13b9342f5755a54647a5a3eea542e06fa2941288947ab7a19e27980eb998b5d5",
            "lineitem":
                "d2b9f95a118a09d56b27ed34b153988a3698e8db2a0885e438e2935e44d8ecb8",
            "partsupp":
                "a92bc4dd746cbc6e67bba9e750e200a37c8e4f81732cbb7fc3b8fa9022570fa7",
        },
    ),
    "tpch-2.0-z1-seed1": (
        lambda: tpch_database(scale=2.0, z=1.0, seed=1),
        {
            "region":
                "b3c75232489533dfe9368069d8be15bfa107f656dc67f928eaf68d30ed4d6040",
            "nation":
                "17d95e891a47024a312150641633f49b7c2b79f9a472e9c672a7a5448ef726b4",
            "supplier":
                "c1b4fa4aedc34ed55284e1b09ffeee6bf8ff16cea2d034a04a07ccd8853704b5",
            "part":
                "fe5d0513c6efd0d29c19cc8e2dad5387d25a3e3f1e90a6e357e2c0ef66d26868",
            "customer":
                "964123ea97c12bd5397332d1b1d10e1ba6368f1f42205cdb08f77afa97d08be0",
            "orders":
                "646fb834f8994b8cde125b1219b80492c1b893360ffb060a8af9315c9bcb5d66",
            "lineitem":
                "d995a75a16a8200a03848c96f1b82bbb915939ccc3ff166be0f5c474364afb41",
            "partsupp":
                "39073ede620204094016bf4dce3049e70f3cf237446e36a7ab5b39c488cc9144",
        },
    ),
    "sales-0.1": (
        lambda: sales_database(scale=0.1),
        {
            "stores":
                "f03f88cee670b25489e0a54f1e653ce6679e5c9b3e61c5e46dea0484ed1c5548",
            "products":
                "261a48b02dfc9f406052c1bbcc2414e00cc706324879c98b462bae1a63204e58",
            "customers":
                "02f7920c566124d9788597335548a8ee44426545b7e04c85605f242c883d4109",
            "sales":
                "bb937a5f654c1aa64aed4f87c4f6bc6401866c7a721f1a82629da915f33076ce",
        },
    ),
    "sales-0.1-z2": (
        lambda: sales_database(scale=0.1, z=2.0),
        {
            "stores":
                "f03f88cee670b25489e0a54f1e653ce6679e5c9b3e61c5e46dea0484ed1c5548",
            "products":
                "0c479fa5669303f22614ce21602ff43948901801f6ed867bc2429c1a09094c79",
            "customers":
                "571be7538878f845fcff285a23da64886ad6ce2342a2de53bbf56a1c5bc714ed",
            "sales":
                "6578a678375c4826b818528cac38b2139040346832b77f8e9a9618d19b117692",
        },
    ),
    "tpcds_lite-0.2": (
        lambda: tpcds_lite_database(scale=0.2),
        {
            "item":
                "4de1c98616a0e8456ada8a6ce1e211a4d0abb4e1618beeb52003ca2e92fcc61b",
            "date_dim":
                "d5bcff28e0da18a0fa77ca50cdc91adffe12720f75caf4f61d4e4f60aa4e08b3",
            "customer":
                "3823de162dbc4d6f9230920cf04ec2e3d1251e213c34eb7a1ce30dff5e8d50a6",
            "store_sales":
                "68885c3e685016879b45700a0392daacbf60564f847cd4a03461238cd53bde24",
        },
    ),
}


@pytest.mark.parametrize("cell", list(CELLS))
def test_every_table_digest_is_pinned(cell):
    make_db, expected = CELLS[cell]
    db = make_db()
    assert {t.name: t.content_digest() for t in db.tables} == expected
