"""Execution statistics and the simulated-time cost model.

The paper evaluates on a 10-node EC2 cluster; we run everything in one
process, so query "runtime" is derived from first-principles accounting the
executor performs while it physically moves rows between per-node partition
stores:

* per-node CPU work — weighted row operations (scan, probe, build, emit);
  replicated tables make every node scan the full table, which is exactly
  the penalty the paper observes for classical partitioning on TPC-H Q9;
* network volume — bytes shipped by re-partition, broadcast and gather
  operators (PREF's whole point is driving this to zero for joins);
* shuffle round-trips — fixed latency per exchange operator.

Simulated seconds = max-per-node CPU + network/bandwidth + latency.  The
absolute constants are calibrated to commodity hardware but only the shape
of comparisons matters for reproducing the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class CostParameters:
    """Constants of the simulated cluster (default: commodity nodes).

    Attributes:
        cpu_tuple_seconds: Seconds per weighted row operation on one node.
        network_bandwidth_bytes: Aggregate shuffle bandwidth in bytes/s.
        shuffle_latency_seconds: Fixed coordination latency per exchange.
        coordinator_overhead_seconds: Fixed per-query overhead.
        row_scale: Extrapolation factor: each simulated row stands for
            ``row_scale`` rows of the modelled deployment.  Benchmarks run
            on a scaled-down database (e.g. TPC-H SF 0.005 instead of the
            paper's SF 10) and set ``row_scale`` to the ratio, so CPU and
            network terms report deployment-scale seconds while the fixed
            latencies stay absolute.
    """

    cpu_tuple_seconds: float = 4e-7
    network_bandwidth_bytes: float = 30e6
    shuffle_latency_seconds: float = 0.05
    coordinator_overhead_seconds: float = 0.1
    row_scale: float = 1.0
    #: Rows (deployment scale) whose join-build hash table fits in one
    #: node's memory.  Builds beyond this pay grace-hash-join style extra
    #: passes over build and probe — the penalty that makes joins against
    #: large replicated tables (classical partitioning) so expensive on
    #: the paper's 3.75 GB nodes.
    memory_rows_per_node: float = 2.5e6
    #: Cost multiplier for each extra spill pass (spilled partitions are
    #: written and re-read from disk, which is slower than in-memory row
    #: processing).
    spill_pass_factor: float = 2.0


@dataclass
class ExecutionStats:
    """Accumulated execution costs of one distributed query."""

    node_count: int
    node_work: list[float] = field(default_factory=list)
    network_bytes: int = 0
    rows_shipped: int = 0
    shuffle_count: int = 0
    rows_processed: int = 0
    #: Base-table partitions actually materialised by scans (partition
    #: pruning reduces this).
    partitions_scanned: int = 0
    #: Rows discarded as PREF-induced duplicates (dedup operators and
    #: governing-column skips during repartitioning).
    rows_dup_eliminated: int = 0
    #: (node, build rows, probe rows) per executed hash join, for the
    #: memory-spill model.
    join_events: list[tuple[int, int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.node_work:
            self.node_work = [0.0] * self.node_count

    @property
    def max_node_work(self) -> float:
        """Weighted row operations on the busiest node (the straggler)."""
        return max(self.node_work) if self.node_work else 0.0

    def canonical(self) -> tuple:
        """Every observable of the cost model, as ``(name, value)`` pairs.

        Two runs of a query are cost-model-equivalent iff their canonical
        tuples are equal; the backend-equivalence suite and the benchmark
        divergence checks compare backends through this.  Join events are
        sorted because their recording order is a scheduling artefact.
        """
        return (
            *((name, getattr(self, name)) for name in _TOTALS),
            ("node_work", tuple(self.node_work)),
            ("join_events", tuple(sorted(self.join_events))),
        )

    def simulated_seconds(self, params: CostParameters | None = None) -> float:
        """Simulated wall-clock runtime under *params*."""
        params = params or CostParameters()
        work = list(self.node_work)
        for node, build_rows, probe_rows in self.join_events:
            scaled_build = build_rows * params.row_scale
            passes = int(scaled_build // params.memory_rows_per_node)
            if scaled_build > 0 and scaled_build % params.memory_rows_per_node == 0:
                passes -= 1
            if passes > 0:
                work[node] += (
                    passes * (build_rows + probe_rows) * params.spill_pass_factor
                )
        max_work = max(work) if work else 0.0
        bandwidth = params.network_bandwidth_bytes * self.node_count
        return (
            max_work * params.row_scale * params.cpu_tuple_seconds
            + self.network_bytes * params.row_scale / bandwidth
            + self.shuffle_count * params.shuffle_latency_seconds
            + params.coordinator_overhead_seconds
        )

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another query's stats (for workload totals)."""
        for name in _TOTALS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for node in range(self.node_count):
            self.node_work[node] += other.node_work[node]
        self.join_events.extend(other.join_events)


#: The scalar totals: every ``ExecutionStats`` field that starts at zero.
_TOTALS = tuple(f.name for f in fields(ExecutionStats) if f.default == 0)
