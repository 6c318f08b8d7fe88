"""SQL subquery predicates: [NOT] EXISTS and [NOT] IN (SELECT ...)."""

import pytest

from helpers import assert_same_rows, pref_chain_config
from repro.errors import SqlError
from repro.partitioning import partition_database
from repro.query import Executor, LocalExecutor
from repro.query.plan import PartnerFilter
from repro.sql import parse_select, sql_to_plan
from repro.sql.ast import ExistsExpression, InSubqueryExpression

QUERIES = [
    "SELECT COUNT(*) AS n FROM customer c WHERE EXISTS "
    "(SELECT * FROM orders o WHERE o.custkey = c.custkey)",
    "SELECT COUNT(*) AS n FROM customer c WHERE NOT EXISTS "
    "(SELECT * FROM orders o WHERE o.custkey = c.custkey)",
    "SELECT COUNT(*) AS n FROM customer c WHERE c.custkey IN "
    "(SELECT o.custkey FROM orders o WHERE o.total > 50)",
    "SELECT c.cname FROM customer c WHERE c.custkey NOT IN "
    "(SELECT o.custkey FROM orders o) ORDER BY c.cname",
    "SELECT COUNT(*) AS n FROM orders o WHERE EXISTS "
    "(SELECT * FROM lineitem l WHERE l.orderkey = o.orderkey AND l.qty > 5)",
    "SELECT i.iname FROM item i WHERE i.itemkey IN "
    "(SELECT l.itemkey FROM lineitem l, orders o "
    "WHERE l.orderkey = o.orderkey AND o.total > 80) ORDER BY i.iname",
]


class TestParsing:
    def test_exists_parsed(self):
        statement = parse_select(QUERIES[0])
        assert isinstance(statement.where, ExistsExpression)
        assert not statement.where.negated

    def test_not_exists_parsed(self):
        statement = parse_select(QUERIES[1])
        assert isinstance(statement.where, ExistsExpression)
        assert statement.where.negated

    def test_in_subquery_parsed(self):
        statement = parse_select(QUERIES[2])
        assert isinstance(statement.where, InSubqueryExpression)


class TestPlanning:
    def test_uncorrelated_exists_rejected(self, shop_db):
        with pytest.raises(SqlError):
            sql_to_plan(
                "SELECT * FROM customer c WHERE EXISTS "
                "(SELECT * FROM orders o WHERE o.total > 5)",
                shop_db.schema,
            )

    def test_in_subquery_needs_single_column(self, shop_db):
        with pytest.raises(SqlError):
            sql_to_plan(
                "SELECT * FROM customer c WHERE c.custkey IN "
                "(SELECT o.custkey, o.total FROM orders o)",
                shop_db.schema,
            )

    def test_not_exists_uses_partner_filter(self, shop_db):
        partitioned = partition_database(shop_db, pref_chain_config(4))
        executor = Executor(partitioned)
        plan = sql_to_plan(QUERIES[1], shop_db.schema)
        annotated = executor.rewriter.rewrite(plan)
        labels = [type(a.node).__name__ for a in annotated.walk()]
        assert "PartnerFilter" in labels


@pytest.mark.parametrize("query", QUERIES)
def test_subqueries_end_to_end(shop_db, query):
    plan = sql_to_plan(query, shop_db.schema)
    partitioned = partition_database(shop_db, pref_chain_config(4))
    expected = LocalExecutor(shop_db).execute(plan).rows
    actual = Executor(partitioned).execute(plan).rows
    assert_same_rows(actual, expected)
