"""``python -m repro`` — a self-contained demonstration of the library.

Generates a small TPC-H database, runs the schema-driven and
workload-driven designers, partitions the data, and executes a few queries
on the simulated cluster, printing the annotated physical plans and the
locality/redundancy numbers.

Options::

    python -m repro [--scale SF] [--nodes N] [--seed S]
    python -m repro explain --query Q3 --analyze --predicate-transfer \
        --backends serial,thread --check --json-out trace.json
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import paper_cost_parameters
from repro.cluster import SimulatedCluster
from repro.design import QuerySpec, SchemaDrivenDesigner, WorkloadDrivenDesigner
from repro.engine.backends import backend_names
from repro.partitioning import partition_database
from repro.query import ExecOptions, Executor
from repro.workloads.tpch import ALL_QUERIES, SMALL_TABLES, generate_tpch


def explain_main(argv: list[str]) -> int:
    """``python -m repro explain`` — EXPLAIN [ANALYZE] a TPC-H query.

    Designs a schema-driven PREF configuration for generated TPC-H data,
    then renders the annotated plan; with ``--analyze`` the query runs
    traced on each requested backend and the measured locality/skew show
    up next to the rewriter's annotations.  ``--check`` asserts the
    canonical (timing-free) traces are identical across the backends;
    ``--json-out`` writes the last backend's trace as schema-validated
    JSON.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="EXPLAIN [ANALYZE] one TPC-H query on the simulated cluster",
    )
    parser.add_argument(
        "--query", default="Q3", choices=sorted(ALL_QUERIES),
        help="TPC-H query name",
    )
    parser.add_argument(
        "--analyze", action="store_true",
        help="execute the query and show measured locality/skew per operator",
    )
    parser.add_argument(
        "--backends", default="serial",
        help="comma-separated engine backends (serial, thread)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="statically certify the rewritten plan (parallel-correctness) "
        "and, with --analyze, assert canonical traces are identical "
        "across the backends",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="write the (validated) JSON trace export to this path",
    )
    parser.add_argument(
        "--scale", type=float, default=0.002, help="TPC-H scale factor"
    )
    parser.add_argument(
        "--nodes", type=int, default=4, help="simulated cluster size"
    )
    parser.add_argument("--seed", type=int, default=1, help="generator seed")
    parser.add_argument(
        "--predicate-transfer", action="store_true",
        help="transfer Bloom filters across the join graph before "
        "execution (results are invariant to this)",
    )
    args = parser.parse_args(argv)
    try:
        backends = backend_names(args.backends)
    except ValueError as exc:
        parser.error(str(exc))
    # One options value and one store: what --check certifies is the plan
    # that cluster.explain renders and every --backends run executes.
    options = ExecOptions(predicate_transfer=args.predicate_transfer)

    database = generate_tpch(scale_factor=args.scale, seed=args.seed)
    design = SchemaDrivenDesigner(database, args.nodes).design(
        replicate=SMALL_TABLES
    )
    build = ALL_QUERIES[args.query]
    partitioned = partition_database(database, design.config)

    def cluster_on(backend: str | None) -> SimulatedCluster:
        return SimulatedCluster(
            database.schema, partitioned, design.config,
            backend=backend, options=options,
        )

    if args.check:
        # Static parallel-correctness certification of the rewritten plan
        # runs first — a refuted plan is not worth tracing.
        from repro.query.certify import certify

        executor = Executor(partitioned, options)
        verdict = certify(executor.annotate(build()), partitioned)
        if not verdict.certified:
            print(verdict.render(), file=sys.stderr)
            return 1
        print(f"certify OK: {args.query} parallel-correct\n")
        print(verdict.render())
        print()

    if not args.analyze:
        cluster = cluster_on(None)
        try:
            print(cluster.explain(build()))
        finally:
            cluster.close()
        return 0

    from repro.obs.explain import dump_trace, trace_to_json, validate_trace

    traces = {}
    for backend_name in backends:
        cluster = cluster_on(backend_name)
        try:
            result = cluster.run(build(), analyze=True, query_name=args.query)
        finally:
            cluster.close()
        traces[backend_name] = result.trace
        print(result.explain_analyze())
        print()

    if args.check:
        canonicals = {
            name: trace.canonical() for name, trace in traces.items()
        }
        reference_name, *rest = list(canonicals)
        for name in rest:
            if canonicals[name] != canonicals[reference_name]:
                print(
                    f"TRACE MISMATCH: {name} diverges from {reference_name}",
                    file=sys.stderr,
                )
                return 1
        print(f"trace check OK: {', '.join(canonicals)} identical")

    if args.json_out:
        last_trace = traces[backends[-1]]
        violations = validate_trace(trace_to_json(last_trace))
        if violations:
            for violation in violations:
                print(f"schema violation: {violation}", file=sys.stderr)
            return 1
        dump_trace(last_trace, args.json_out)
        print(f"wrote {args.json_out}")
    return 0


def certify_main(argv: list[str]) -> int:
    """``python -m repro certify`` — certify TPC-H plans under 3 configs.

    Annotates every TPC-H query as the executor runs it (filter
    pushdown, then the rewriter) against an all-hashed, a schema-driven
    PREF, and a patched-PREF (``max_copies=1`` on un-referenced PREF
    leaves) partitioning of generated data, and runs the static
    parallel-correctness certifier on each plan.  Exit status 1 if any
    plan is refuted; ``--render`` prints the per-node certificates.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro certify",
        description="statically certify TPC-H plans under several configs",
    )
    parser.add_argument(
        "--query", default=None, choices=sorted(ALL_QUERIES),
        help="certify only this query (default: all)",
    )
    parser.add_argument(
        "--configs", default="hashed,pref,patched",
        help="comma-separated subset of hashed,pref,patched",
    )
    parser.add_argument(
        "--render", action="store_true",
        help="print the full per-node certificate for every plan",
    )
    parser.add_argument(
        "--scale", type=float, default=0.002, help="TPC-H scale factor"
    )
    parser.add_argument(
        "--nodes", type=int, default=4, help="simulated cluster size"
    )
    parser.add_argument("--seed", type=int, default=1, help="generator seed")
    args = parser.parse_args(argv)

    from repro.partitioning.config import PartitioningConfig
    from repro.partitioning.scheme import PatchedPrefScheme, PrefScheme
    from repro.query.certify import certify

    database = generate_tpch(scale_factor=args.scale, seed=args.seed)
    pref_config = SchemaDrivenDesigner(database, args.nodes).design(
        replicate=SMALL_TABLES
    ).config

    def patched_config() -> PartitioningConfig:
        referenced = {
            scheme.referenced_table
            for _table, scheme in pref_config
            if isinstance(scheme, PrefScheme)
        }
        patched = PartitioningConfig(pref_config.partition_count)
        for table, scheme in pref_config:
            if isinstance(scheme, PrefScheme) and table not in referenced:
                scheme = PatchedPrefScheme(
                    scheme.referenced_table, scheme.predicate, max_copies=1
                )
            patched.add(table, scheme)
        patched.validate(database.schema)
        return patched

    from repro.design.baselines import all_hashed

    builders = {
        "hashed": lambda: all_hashed(database, args.nodes),
        "pref": lambda: pref_config,
        "patched": patched_config,
    }
    wanted = [name.strip() for name in args.configs.split(",") if name.strip()]
    unknown = [name for name in wanted if name not in builders]
    if unknown:
        print(f"unknown configs: {', '.join(unknown)}", file=sys.stderr)
        return 2
    queries = [args.query] if args.query else sorted(ALL_QUERIES)

    failures = 0
    for config_name in wanted:
        config = builders[config_name]()
        partitioned = partition_database(database, config)
        executor = Executor(partitioned)
        certified = 0
        for name in queries:
            verdict = certify(executor.annotate(ALL_QUERIES[name]()), partitioned)
            if verdict.certified:
                certified += 1
                if args.render:
                    print(f"--- {config_name} {name} ---")
                    print(verdict.render())
            else:
                failures += 1
                print(f"--- {config_name} {name} ---", file=sys.stderr)
                print(verdict.render(), file=sys.stderr)
        print(f"{config_name}: {certified}/{len(queries)} plans certified")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explain":
        return explain_main(argv[1:])
    if argv and argv[0] == "certify":
        return certify_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PREF partitioning demo on generated TPC-H data",
    )
    parser.add_argument(
        "--scale", type=float, default=0.002, help="TPC-H scale factor"
    )
    parser.add_argument(
        "--nodes", type=int, default=10, help="simulated cluster size"
    )
    parser.add_argument("--seed", type=int, default=1, help="generator seed")
    args = parser.parse_args(argv)

    print(f"generating TPC-H at SF {args.scale} (seed {args.seed}) ...")
    database = generate_tpch(scale_factor=args.scale, seed=args.seed)
    sizes = ", ".join(
        f"{name}={table.row_count}" for name, table in database.tables.items()
    )
    print(f"  {sizes}\n")

    print("running the schema-driven designer (paper Section 3) ...")
    design = SchemaDrivenDesigner(database, args.nodes).design(
        replicate=SMALL_TABLES
    )
    print(design.config.describe())
    print(
        f"  seeds={design.seeds}  DL={design.data_locality:.2f}  "
        f"estimated DR={design.estimated_redundancy:.2f}\n"
    )

    print("partitioning and executing queries ...")
    cluster = SimulatedCluster.partition(database, design.config)
    cost = paper_cost_parameters(args.scale)
    print(f"  actual DR = {cluster.data_redundancy():.2f}")
    for name in ("Q3", "Q9", "Q22"):
        result = cluster.run(ALL_QUERIES[name]())
        print(
            f"  {name}: {len(result.rows)} rows, "
            f"{result.stats.shuffle_count} shuffles, "
            f"{result.stats.network_bytes} net bytes, "
            f"~{result.simulated_seconds(cost):.1f}s at deployment scale"
        )

    print("\nannotated plan of a co-partitioned join:")
    print(
        cluster.explain(
            "SELECT c.c_mktsegment, COUNT(*) AS n FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey "
            "GROUP BY c.c_mktsegment"
        )
    )

    print("\nrunning the workload-driven designer (paper Section 4) ...")
    specs = [
        QuerySpec.from_plan(name, build(), database.schema)
        for name, build in ALL_QUERIES.items()
    ]
    wd = WorkloadDrivenDesigner(database, args.nodes).design(
        specs, replicate=SMALL_TABLES
    )
    print(
        f"  {wd.components_initial} query components -> "
        f"{wd.components_after_containment} after containment -> "
        f"{len(wd.fragments)} fragments; DL={wd.data_locality:.2f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
