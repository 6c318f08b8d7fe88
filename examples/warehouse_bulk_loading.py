"""Incremental bulk loading into a PREF-partitioned warehouse (Section 2.3).

Shows how partition indexes route new tuples without joins, how locality is
maintained when referenced-side data arrives late, and what the paper's
dup/hasS bitmap indexes look like after loading.

Run with:  python examples/warehouse_bulk_loading.py
"""

from repro import (
    Database,
    DatabaseSchema,
    DataType,
    HashScheme,
    JoinPredicate,
    PartitioningConfig,
    PrefScheme,
)
from repro.partitioning import (
    BulkLoader,
    check_pref_invariants,
    partition_database,
)

schema = DatabaseSchema()
schema.create_table(
    "sales",
    [
        ("sale_id", DataType.INTEGER),
        ("product_id", DataType.INTEGER),
        ("amount", DataType.FLOAT),
    ],
    primary_key=["sale_id"],
)
schema.create_table(
    "product",
    [("product_id", DataType.INTEGER), ("label", DataType.VARCHAR)],
    primary_key=["product_id"],
)
schema.add_foreign_key("fk", "sales", ["product_id"], "product", ["product_id"])

config = PartitioningConfig(4)
config.add("sales", HashScheme(("sale_id",), 4))
config.add(
    "product",
    PrefScheme(
        "sales",
        JoinPredicate.equi("product", "product_id", "sales", "product_id"),
    ),
)

empty = Database(schema)
partitioned = partition_database(empty, config)
loader = BulkLoader(partitioned, config)

print("loading day 1: sales for products 1 and 2 ...")
stats = loader.insert(
    "sales", [(1, 1, 9.5), (2, 1, 3.0), (3, 2, 7.25), (4, 1, 1.0)]
)
print(f"  {stats.copies_written} copies written")

print("loading product catalog (PREF: placed via the partition index) ...")
stats = loader.insert("product", [(1, "anvil"), (2, "rocket"), (3, "magnet")])
print(
    f"  {stats.copies_written} copies written from {stats.rows_in} rows "
    f"({stats.index_lookups} partition-index lookups)"
)
product = partitioned.table("product")
for partition in product.partitions:
    bits = [
        f"{row[1]}(dup={int(partition.dup[i])},has={int(partition.has_partner[i])})"
        for i, row in enumerate(partition.rows)
    ]
    print(f"  node {partition.partition_id}: {bits}")

print("\nday 2: product 3 finally sells; it is placed again next to its sales ...")
stats = loader.insert("sales", [(5, 3, 42.0), (6, 3, 17.0)])
print(
    f"  {stats.copies_written - stats.propagated_copies} sales copies "
    f"written, {stats.propagated_copies} product copies re-placed"
)
check_pref_invariants(partitioned, config, exact=True)
print("  PREF invariants hold exactly after the incremental load")

print("\nupdates apply to every copy; predicate columns are protected:")
updated = loader.update(
    "product",
    where=lambda row: row[0] == 1,
    assign=lambda row: (row[0], "ANVIL (deluxe)"),
)
print(f"  updated {updated} copies of product 1")
try:
    loader.update(
        "product",
        where=lambda row: row[0] == 1,
        assign=lambda row: (99, row[1]),
    )
except Exception as error:  # noqa: BLE001 - demo output
    print(f"  rejected key update: {error}")

removed = loader.delete("product", lambda row: row[0] == 2)
print(f"  deleted {removed} copies of product 2")
