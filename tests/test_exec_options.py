"""ExecOptions: declared once, validated once, carried everywhere.

Covers the value itself (defaults, immutability, the boundary checks),
that no layer re-declares one of its fields, that a cluster keeps its
options across a migration, that the fuzzer's ``variant`` *is* the value
(a misspelt or mistyped flag is an invalid case, not a silent default),
and that ``explain --check`` certifies the plan that runs.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

from helpers import all_hashed_config, pref_chain_config
from repro import bench
from repro.cluster import SimulatedCluster
from repro.engine.compile import compile_plan
from repro.fuzz.certify import confirm_refutation
from repro.fuzz.generator import generate_case
from repro.fuzz.runner import run_case, run_fuzz
from repro.query import ExecOptions, Executor, Query
from repro.query.expressions import col, lit

REPROS = Path(__file__).parent / "fixtures" / "repros"
FLAGS = ("optimizations", "locality", "predicate_transfer")


class TestTheValue:
    def test_defaults(self):
        options = ExecOptions()
        assert dataclasses.astuple(options) == (True, True, False)

    def test_frozen_hashable_replaceable(self):
        options = ExecOptions(locality=False)
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.locality = True
        assert len({options, ExecOptions(locality=False), ExecOptions()}) == 2
        flipped = dataclasses.replace(options, predicate_transfer=True)
        assert flipped == ExecOptions(locality=False, predicate_transfer=True)
        assert options.predicate_transfer is False

    @pytest.mark.parametrize("flag", FLAGS)
    @pytest.mark.parametrize("value", ["off", "no", 1, 0, None, 0.0, []])
    def test_flags_must_be_bool(self, flag, value):
        with pytest.raises(ValueError, match=f"{flag} must be True or False"):
            ExecOptions(**{flag: value})

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError):
            ExecOptions(localty=False)
        with pytest.raises(TypeError):
            ExecOptions(batch_size=1024)
        with pytest.raises(TypeError):
            ExecOptions(bloom_fpr=0.01)


class TestDeclaredOnce:
    def test_exactly_three_fields(self):
        assert {f.name for f in dataclasses.fields(ExecOptions)} == {*FLAGS}

    @pytest.mark.parametrize(
        "callable_",
        [
            Executor.__init__,
            SimulatedCluster.__init__,
            SimulatedCluster.partition,
            bench.run_workload,
            compile_plan,
        ],
        ids=lambda fn: fn.__qualname__,
    )
    def test_no_layer_redeclares_an_option(self, callable_):
        names = set(inspect.signature(callable_).parameters)
        assert not names & {*FLAGS, "bloom_fpr", "batch_size"}

    def test_no_loose_keyword_path(self, shop_hashed):
        partitioned, config = shop_hashed
        with pytest.raises(TypeError):
            Executor(partitioned, predicate_transfer=True)
        with pytest.raises(TypeError):
            SimulatedCluster(
                None, partitioned, config, backend="serial", locality=False
            )


class TestFlagsThatLied:
    """On the parent these ran with the feature *on*: ``bool("off")``."""

    def test_string_flags_are_rejected_not_coerced(self, shop_hashed):
        partitioned, _config = shop_hashed
        with pytest.raises(ValueError, match="predicate_transfer must be"):
            Executor(partitioned, ExecOptions(predicate_transfer="off"))
        with pytest.raises(ValueError, match="optimizations must be"):
            Executor(partitioned, ExecOptions(optimizations="no"))

    def test_misspelt_variant_is_an_invalid_case(self):
        case = generate_case(0, 0)
        case["variant"] = {
            "predicate-transfer": True,
            "localty": False,
            "predicate_transfer": "off",
        }
        divergence = run_case(case, backends=("serial",))
        assert divergence is not None
        assert divergence.kind == "invalid_case:TypeError"

    def test_mistyped_variant_is_an_invalid_case(self):
        case = generate_case(0, 0)
        case["variant"] = {"predicate_transfer": "off"}
        divergence = run_case(case, backends=("serial",))
        assert divergence is not None
        assert divergence.kind == "invalid_case:ValueError"
        assert "predicate_transfer must be True or False" in divergence.detail

    def test_confirm_refutation_treats_bad_flags_as_invalid(self):
        case = generate_case(0, 0)
        assert confirm_refutation(
            case, case["queries"][0], {"localty": False}
        ) is None

    def test_overrides_are_validated_before_the_sweep(self):
        with pytest.raises(TypeError):
            run_fuzz(1, 0, backends=("serial",), variant_overrides={"localty": 0})
        with pytest.raises(ValueError, match="predicate_transfer"):
            run_fuzz(
                1, 0, backends=("serial",),
                variant_overrides={"predicate_transfer": "on"},
            )


class TestTheVariantIsTheValue:
    @pytest.mark.parametrize(
        "path", sorted(REPROS.glob("*.json")), ids=lambda path: path.stem
    )
    def test_recorded_variants_load(self, path):
        variant = json.loads(path.read_text())["variant"]
        options = ExecOptions(**variant)
        assert {k: getattr(options, k) for k in variant} == variant

    def test_generated_cases_are_clean(self):
        for index in range(20):
            case = generate_case(0, index)
            assert set(case["variant"]) == set(FLAGS)
            divergence = run_case(case, backends=("serial",))
            assert divergence is None, divergence.describe()


def _selective_join():
    """customer (filtered) ⋈ orders ⋈ lineitem: transfer prunes orders
    and lineitem whenever the joins shuffle."""
    c = Query.scan("customer", alias="c")
    o = Query.scan("orders", alias="o")
    l = Query.scan("lineitem", alias="l")  # noqa: E741
    return (
        c.where(col("c.custkey") < lit(5))
        .join(o, on=[("c.custkey", "o.custkey")])
        .join(l, on=[("o.orderkey", "l.orderkey")])
        .aggregate(group_by=["c.cname"], aggregates=[("sum", col("l.qty"), "q")])
        .plan()
    )


def test_options_survive_a_migration(shop_db):
    options = ExecOptions(predicate_transfer=True, locality=False)
    cluster = SimulatedCluster.partition(
        shop_db, all_hashed_config(4), backend="serial", options=options
    )

    def assert_still_configured():
        assert cluster.options is options
        assert cluster.executor.options is cluster.options
        trace = cluster.run(_selective_join(), analyze=True).trace
        # locality=False: even the PREF chain's co-partitioned joins move
        # rows; predicate_transfer=True: so Bloom probes guard the scans.
        assert all(join.case == "shuffled" for join in trace.joins())
        probes = [s for s in trace.spans() if s.name == "bloom_probe"]
        assert probes and any(s.bloom_pruned > 0 for s in probes)

    try:
        assert_still_configured()
        cluster.repartition(pref_chain_config(4))
        assert_still_configured()
        with cluster.serve() as server:
            server.migrate(all_hashed_config(4))
        assert_still_configured()
    finally:
        cluster.close()


class TestExplainCli:
    ARGS = ["--query", "Q3", "--scale", "0.001", "--nodes", "3"]

    @pytest.fixture
    def partition_calls(self, monkeypatch):
        """Count every ``partition_database`` call, however imported."""
        from repro.partitioning import partitioner

        calls = []
        partition_rows = partitioner.partition_rows

        def counting(schema, config, rows_of):
            calls.append(config)
            return partition_rows(schema, config, rows_of)

        monkeypatch.setattr(partitioner, "partition_rows", counting)
        return calls

    @pytest.mark.parametrize(
        "extra",
        [
            ["--check"],
            ["--check", "--analyze", "--backends", "serial,thread"],
            ["--check", "--analyze", "--predicate-transfer"],
        ],
        ids=["check", "check-analyze", "check-analyze-transfer"],
    )
    def test_one_store_for_certify_explain_and_runs(
        self, partition_calls, capsys, extra
    ):
        from repro.__main__ import explain_main

        assert explain_main(self.ARGS + extra) == 0
        assert len(partition_calls) == 1
        assert "certify OK" in capsys.readouterr().out

    def test_check_certifies_under_the_cli_options(self, monkeypatch, capsys):
        """The plan handed to the certifier is annotated under the same
        options object the clusters run with."""
        from repro import __main__ as cli

        seen = []

        class Recording(Executor):
            def __init__(self, partitioned, options=None, **kwargs):
                seen.append(options)
                super().__init__(partitioned, options, **kwargs)

        monkeypatch.setattr(cli, "Executor", Recording)
        monkeypatch.setattr("repro.cluster.cluster.Executor", Recording)
        assert cli.explain_main(self.ARGS + ["--check", "--predicate-transfer"]) == 0
        capsys.readouterr()
        assert len(seen) == 2  # the certifier's executor and the cluster's
        assert seen[0] is seen[1]
        assert seen[0] == ExecOptions(predicate_transfer=True)
