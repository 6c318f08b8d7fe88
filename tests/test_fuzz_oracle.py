"""The differential fuzzing harness itself: generator, runner, shrinker."""

from repro.fuzz import generate_case, run_case, run_fuzz
from repro.fuzz.ir import build_database, build_plan, load_case, save_case
from repro.fuzz.shrinker import _ddmin, shrink
from repro.fuzz.sqlite_oracle import run_sqlite
from repro.fuzz.differ import rows_equal
from repro.fuzz.__main__ import main
from repro.query.local_executor import LocalExecutor


class TestGenerator:
    def test_deterministic_per_seed_and_index(self):
        assert generate_case(5, 3) == generate_case(5, 3)

    def test_distinct_indexes_differ(self):
        cases = [generate_case(0, index) for index in range(8)]
        assert any(case != cases[0] for case in cases[1:])

    def test_cases_are_json_round_trippable(self, tmp_path):
        case = generate_case(1, 2)
        path = tmp_path / "case.json"
        save_case(case, str(path))
        assert load_case(str(path)) == case

    def test_generated_queries_build_plans(self):
        for index in range(10):
            case = generate_case(2, index)
            for query in case["queries"]:
                build_plan(query)  # must not raise


class TestOracles:
    def test_local_executor_agrees_with_sqlite(self):
        """Both phases: the initial tables, then after the case's loads."""
        checked = {"initial": 0, "after_load": 0}
        for index in range(15):
            case = generate_case(3, index)
            database = build_database(case)
            phases = [("initial", {})]
            if case["loads"]:
                phases.append(("after_load", case["loads"]))
            for phase, loads in phases:
                for name, rows in loads.items():
                    database.load(name, rows)
                for query in case["queries"]:
                    local = LocalExecutor(database).execute(build_plan(query))
                    via_sqlite = run_sqlite(database, query)
                    assert rows_equal(local.rows, via_sqlite), (index, phase)
                    checked[phase] += 1
        assert checked["initial"] > 10
        assert checked["after_load"] > 0


class TestRunner:
    def test_small_batch_is_clean(self):
        report = run_fuzz(
            12, seed=0, backends=("serial", "thread"), shrink_divergent=False
        )
        assert report.ok, report.summary()
        assert report.cases_run == 12
        assert "zero divergences" in report.summary()

    def test_run_case_replays_clean(self):
        case = generate_case(0, 4)
        assert run_case(case, backends=("serial",)) is None


class TestShrinker:
    def test_ddmin_finds_minimal_pair(self):
        wanted = {7, 13}
        reduced = _ddmin(
            list(range(20)), lambda subset: wanted <= set(subset)
        )
        assert sorted(reduced) == [7, 13]

    def test_shrink_keeps_failure_and_reduces(self):
        case = generate_case(0, 432)

        def still_fails(candidate):
            return any(
                row[0] == 58
                for table in candidate["tables"]
                if table["name"] == "t0"
                for row in table["rows"]
            )

        shrunk = shrink(case, still_fails, max_attempts=150)
        assert still_fails(shrunk)
        assert sum(len(t["rows"]) for t in shrunk["tables"]) < sum(
            len(t["rows"]) for t in case["tables"]
        )
        assert len(shrunk["queries"]) <= len(case["queries"])


class TestCli:
    def test_smoke_run_exits_zero(self, capsys):
        assert main(["--cases", "5", "--seed", "1", "--quiet"]) == 0
        assert "zero divergences" in capsys.readouterr().out

    def test_replay_clean_case(self, tmp_path, capsys):
        path = tmp_path / "case.json"
        save_case(generate_case(0, 4), str(path))
        assert main(["--replay", str(path)]) == 0
        assert "no divergence" in capsys.readouterr().out
