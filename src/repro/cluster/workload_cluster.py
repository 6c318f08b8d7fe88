"""A multi-fragment deployment of a workload-driven design.

The WD algorithm produces several merged MASTs, each materialised as its
own physical database (paper Section 4: "for query execution, a query can
be routed to the MAST which contains the query and which has minimal
data-redundancy for all tables read by that query").  This facade builds
all fragment clusters, routes queries to them, and reports combined
storage numbers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.cluster.cluster import SimulatedCluster
from repro.design.estimator import RedundancyEstimator
from repro.engine.backends import Backend, SerialBackend
from repro.design.workload import QuerySpec
from repro.design.workload_driven import (
    WorkloadDesignResult,
    WorkloadDrivenDesigner,
    route_to_config,
)
from repro.errors import DesignError
from repro.partitioning.config import PartitioningConfig
from repro.partitioning.scheme import HashScheme, ReplicatedScheme
from repro.query.cost import CostParameters
from repro.query.executor import QueryResult
from repro.query.plan import PlanNode
from repro.sql.planner import sql_to_plan
from repro.storage.table import Database


class WorkloadCluster:
    """Fragment clusters for one workload-driven design, with routing."""

    def __init__(
        self,
        database: Database,
        design: WorkloadDesignResult,
        partition_count: int,
        replicate: Iterable[str] = (),
        cost: CostParameters | None = None,
        backend: Backend | None = None,
    ) -> None:
        self.database = database
        self.design = design
        self.partition_count = partition_count
        self.replicated = tuple(replicate) or design.replicated
        self.cost = cost or CostParameters()
        #: One engine backend shared by every fragment cluster, so a
        #: routed workload reuses a single scheduler (and its pool).
        self.backend = backend or SerialBackend()
        self._estimator = RedundancyEstimator(database, partition_count)
        self.configs: list[PartitioningConfig] = [
            self._covering_config(fragment.config)
            for fragment in design.fragments
        ]
        self.clusters: list[SimulatedCluster] = [
            SimulatedCluster.partition(
                database, config, cost=self.cost, backend=self.backend
            )
            for config in self.configs
        ]

    @classmethod
    def design(
        cls,
        database: Database,
        workload: Sequence[QuerySpec],
        partition_count: int,
        replicate: Iterable[str] = (),
        sampling_rate: float = 1.0,
        cost: CostParameters | None = None,
        backend: Backend | None = None,
    ) -> "WorkloadCluster":
        """Run the WD algorithm and materialise every fragment."""
        designer = WorkloadDrivenDesigner(
            database, partition_count, sampling_rate=sampling_rate
        )
        result = designer.design(workload, replicate=replicate)
        return cls(
            database,
            result,
            partition_count,
            replicate=replicate,
            cost=cost,
            backend=backend,
        )

    # -- routing ------------------------------------------------------------

    def route_tables(self, tables: Iterable[str]) -> int:
        """Fragment index covering *tables* with minimal redundancy."""
        choice = route_to_config(
            frozenset(tables),
            [fragment.config for fragment in self.design.fragments],
            self._estimator,
            replicated=self.replicated,
        )
        if choice is None:
            raise DesignError(
                f"no fragment covers tables {sorted(set(tables))}"
            )
        return choice

    def route_plan(self, plan: PlanNode) -> int:
        """Fragment index for a logical plan (by its base tables)."""
        spec = QuerySpec.from_plan("q", plan, self.database.schema)
        return self.route_tables(spec.tables)

    # -- execution -------------------------------------------------------------

    def run(self, plan: PlanNode) -> QueryResult:
        """Route and execute a logical plan."""
        return self.clusters[self.route_plan(plan)].run(plan)

    def sql(self, text: str) -> QueryResult:
        """Route and execute a SQL statement."""
        return self.run(sql_to_plan(text, self.database.schema))

    def explain(self, text: str) -> str:
        """The annotated physical plan on the routed fragment."""
        plan = sql_to_plan(text, self.database.schema)
        index = self.route_plan(plan)
        return (
            f"-- routed to fragment {index}\n"
            + self.clusters[index].explain(plan)
        )

    def close(self) -> None:
        """Release the shared engine backend's scheduler resources."""
        self.backend.close()

    # -- storage ------------------------------------------------------------------

    def total_stored_rows(self) -> int:
        """Stored rows over all fragments, sharing identical schemes."""
        from repro.design.workload_driven import _scheme_signature

        seen: set[tuple] = set()
        total = 0
        for cluster in self.clusters:
            for table in cluster.config.tables:
                signature = (table, _scheme_signature(cluster.config, table))
                if signature in seen:
                    continue
                seen.add(signature)
                total += cluster.partitioned.table(table).total_rows
        return total

    def data_redundancy(self) -> float:
        """Combined DR over the union of tables stored by the fragments."""
        tables = {
            table for cluster in self.clusters for table in cluster.config.tables
        }
        base = sum(self.database.table(table).row_count for table in tables)
        if base == 0:
            return 0.0
        return self.total_stored_rows() / base - 1.0

    # -- internals -------------------------------------------------------------------

    def _covering_config(
        self, fragment_config: PartitioningConfig
    ) -> PartitioningConfig:
        """Fragment config + replicated small tables + hash-PK defaults."""
        config = PartitioningConfig(self.partition_count)
        for table, scheme in fragment_config:
            config.add(table, scheme)
        for table in self.replicated:
            if self.database.schema.has_table(table) and table not in config:
                config.add(table, ReplicatedScheme(self.partition_count))
        for table in self.database.schema.table_names:
            if table in config:
                continue
            table_schema = self.database.schema.table(table)
            columns = table_schema.primary_key or (
                table_schema.columns[0].name,
            )
            config.add(
                table, HashScheme(tuple(columns), self.partition_count)
            )
        return config
