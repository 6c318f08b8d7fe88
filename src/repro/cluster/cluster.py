"""A simulated shared-nothing cluster: the library's main facade.

Wraps a partitioned database with the distributed execution engine, a SQL
front end and bulk loading, standing in for the paper's XDB middleware
over MySQL nodes.  Example::

    cluster = SimulatedCluster.partition(database, config)
    result = cluster.sql("SELECT COUNT(*) AS n FROM lineitem l")
    print(result.rows, result.simulated_seconds())
    print(result.explain_operators())

Queries run on a pluggable engine backend; the default is the
:class:`~repro.engine.backends.SerialBackend` — the kernels are pure
Python, so threads add hand-off cost the GIL never pays back (DESIGN
"Backend matrix" has the stopwatch).  Pass ``backend="thread"`` to run
independent per-partition operator tasks concurrently between exchange
barriers on a pool shared by every query of the cluster — results and
stats are identical across backends by construction (the equivalence
suite pins this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.catalog.schema import DatabaseSchema
from repro.cluster.node import NodeReport
from repro.engine.backends import Backend, SerialBackend, make_backend
from repro.errors import PartitioningError
from repro.partitioning.bulk_loader import BulkLoader
from repro.partitioning.config import PartitioningConfig
from repro.partitioning.partitioner import partition_database, partition_rows
from repro.query.cost import CostParameters
from repro.query.executor import Executor, QueryResult
from repro.query.options import ExecOptions
from repro.query.plan import PlanNode
from repro.sql.planner import sql_to_plan
from repro.storage.partitioned import PartitionedDatabase
from repro.storage.table import Database

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.serve.server import ClusterServer


def _text_result(lines: list[str]) -> QueryResult:
    """A :class:`QueryResult` carrying rendered plan text as rows.

    Shaped like an RDBMS ``EXPLAIN`` resultset: one ``(plan,)`` row per
    line.  ``stats`` is empty and ``plan`` is None — there is no executed
    query behind the rows themselves.
    """
    from repro.query.cost import ExecutionStats

    return QueryResult(
        ("plan",), [(line,) for line in lines], ExecutionStats(0), None
    )


class SimulatedCluster:
    """A cluster of ``n`` simulated nodes holding one partitioned database.

    The partitioned store is the cluster's only copy of its data: writes
    go to it through ``loader``, queries and :meth:`repartition` read it.

    Args:
        schema: The database schema (what SQL text is planned against).
        partitioned: The partitioned database (one store per node).
        config: The partitioning configuration that produced it.
        cost: Cost parameters of the simulated hardware; stamped onto
            every :class:`QueryResult` so ``result.simulated_seconds()``
            uses them without re-passing.
        backend: Engine scheduling backend — an instance or a name from
            :data:`~repro.engine.backends.BACKENDS` (``"serial"``,
            ``"thread"``), shared across this cluster's queries.  Default:
            serial.
        options: The :class:`~repro.query.options.ExecOptions` every
            query of this cluster runs under (default: ``ExecOptions()``);
            kept as ``cluster.options`` across :meth:`repartition`.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        partitioned: PartitionedDatabase,
        config: PartitioningConfig,
        cost: CostParameters | None = None,
        backend: Backend | str | None = None,
        options: ExecOptions | None = None,
    ) -> None:
        self.schema = schema
        self.partitioned = partitioned
        self.config = config
        self.cost = cost or CostParameters()
        self.backend = make_backend(backend) or SerialBackend()
        self.executor = Executor(
            partitioned, options, backend=self.backend, cost=self.cost
        )
        self.options = self.executor.options
        self.loader = BulkLoader(partitioned, config)

    @classmethod
    def partition(
        cls,
        database: Database,
        config: PartitioningConfig,
        cost: CostParameters | None = None,
        backend: Backend | str | None = None,
        options: ExecOptions | None = None,
    ) -> "SimulatedCluster":
        """Partition *database* under *config* and wrap it in a cluster."""
        partitioned = partition_database(database, config)
        return cls(database.schema, partitioned, config, cost, backend, options)

    @property
    def node_count(self) -> int:
        """Number of nodes (== partitions)."""
        return self.partitioned.partition_count

    # -- querying ------------------------------------------------------------

    def run(
        self,
        plan: PlanNode,
        analyze: bool = False,
        query_name: str | None = None,
    ) -> QueryResult:
        """Execute a logical plan on the cluster.

        With ``analyze=True`` the result carries a query trace and
        ``result.explain_analyze()`` renders the annotated-vs-measured
        plan."""
        return self.executor.execute(plan, analyze=analyze, query_name=query_name)

    def sql(self, text: str, analyze: bool = False) -> QueryResult:
        """Parse, plan, and execute a SQL statement.

        A leading ``EXPLAIN [ANALYZE]`` prefix turns the statement into
        its plan rendering: the result holds one ``(plan,)`` row per
        output line instead of query rows (ANALYZE runs the query and
        renders measurements; plain EXPLAIN only plans it).
        """
        from repro.sql.planner import strip_explain

        mode, body = strip_explain(text)
        if mode == "explain":
            lines = self.explain(body).splitlines()
            return _text_result(lines)
        plan = sql_to_plan(body, self.schema)
        if mode == "explain_analyze":
            result = self.run(plan, analyze=True)
            return _text_result(result.explain_analyze().splitlines())
        return self.run(plan, analyze=analyze)

    def explain(self, plan_or_sql: PlanNode | str) -> str:
        """The annotated physical plan, as text."""
        if isinstance(plan_or_sql, str):
            plan = sql_to_plan(plan_or_sql, self.schema)
        else:
            plan = plan_or_sql
        return self.executor.explain(plan)

    def explain_analyze(
        self, plan_or_sql: PlanNode | str, query_name: str | None = None
    ) -> str:
        """Run the query traced and render ``EXPLAIN ANALYZE`` text."""
        if isinstance(plan_or_sql, str):
            plan = sql_to_plan(plan_or_sql, self.schema)
        else:
            plan = plan_or_sql
        return self.run(plan, analyze=True, query_name=query_name).explain_analyze()

    def simulated_seconds(self, plan: PlanNode) -> float:
        """Execute *plan* and return its simulated runtime."""
        return self.run(plan).simulated_seconds(self.cost)

    def serve(self, **options) -> "ClusterServer":
        """A started :class:`~repro.serve.ClusterServer` over this cluster.

        Keyword options are forwarded (``max_inflight``, ``queue_depth``,
        ``queue_timeout``, ``plan_cache_size``, ``result_cache_size``,
        ``metrics``).  Use as a context manager::

            with cluster.serve(queue_depth=64) as server:
                ticket = server.submit("SELECT ...")

        While serving, route bulk loads through ``server.load`` (not
        ``cluster.loader``) so epochs bump and dependent cache entries
        drop.
        """
        from repro.serve.server import ClusterServer

        return ClusterServer(self, **options).start()

    def close(self) -> None:
        """Release the engine backend's scheduler resources."""
        self.backend.close()

    # -- online repartitioning ---------------------------------------------------

    def repartition(self, new_config: PartitioningConfig):
        """Switch this cluster to *new_config* in place; return the plan.

        The canonical rows of the partitioned tables (which carry every
        load since partitioning) are placed into a fresh store under
        *new_config* by the routine that partitions a database, and the
        new store is swapped in together with a fresh executor and loader.
        A *new_config* naming a table the store does not hold raises
        :class:`~repro.errors.PartitioningError` and changes nothing.
        Returns the :class:`~repro.partitioning.migration.MigrationPlan`
        comparing old and new placements.

        Not concurrency-safe on its own: when the cluster is being served,
        call :meth:`repro.serve.ClusterServer.migrate` instead, which runs
        this under the serve layer's write lock and invalidates caches.
        """
        from repro.partitioning.migration import compare_placements

        missing = [
            table
            for table in new_config.tables
            if not self.partitioned.has_table(table)
        ]
        if missing:
            raise PartitioningError(
                f"cannot repartition: the store holds no table "
                f"{', '.join(map(repr, missing))}"
            )
        new_partitioned = partition_rows(
            self.schema,
            new_config,
            lambda table: self.partitioned.table(table).canonical_rows(),
        )
        plan = compare_placements(self.partitioned, new_partitioned)
        self.partitioned = new_partitioned
        self.config = new_config
        self.executor = Executor(
            new_partitioned, self.options, backend=self.backend, cost=self.cost
        )
        self.loader = BulkLoader(new_partitioned, new_config)
        return plan

    # -- storage -----------------------------------------------------------------

    def node_reports(self) -> list[NodeReport]:
        """Per-node storage snapshots."""
        reports = []
        for node_id in range(self.node_count):
            tables = {}
            rows = 0
            size = 0
            for name, table in self.partitioned.tables.items():
                partition = table.partitions[node_id]
                tables[name] = partition.row_count
                rows += partition.row_count
                size += partition.row_count * table.schema.row_byte_width
            reports.append(NodeReport(node_id, rows, size, tables))
        return reports

    def data_redundancy(self) -> float:
        """DR of the stored database."""
        return self.partitioned.data_redundancy()
