"""The repository benchmark: one command, four workloads, every answer checked.

    python3 benchmarks/perf/run.py --workload tpch_pref --seed 1
    python3 benchmarks/perf/run.py --workload tpch_hashed --trace 1
    python3 benchmarks/perf/run.py            # all four, one process each

Without ``--trace`` a run prints the end-to-end metrics declared in
``BENCHMARK.json``; with it, a shorter instrumented run prints the
per-layer metrics and writes its spans to
``benchmarks/perf/out/<workload>.trace.json``.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); everything above it is for people.  A wrong answer makes
the exit code non-zero.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
OUT_DIR = PERF_DIR / "out"

# The checkout is run as it is, never installed: the program under test
# is the source tree beside this directory.
sys.path[:0] = [p for p in (str(REPO_ROOT / "src"), str(PERF_DIR)) if p not in sys.path]
try:
    from perf_harness import Tracer
    from perf_ingest import run_ingest_workload
    from perf_serve import run_serve_workload
    from perf_tpch import READ_WORKLOADS, run_read_workload
except ImportError as error:
    raise SystemExit(
        f"benchmark cannot start: {error} (expected the repro package "
        f"under {REPO_ROOT / 'src'})"
    ) from error


def declared() -> dict:
    """``BENCHMARK.json``: the one place metric and workload names live."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def run_workload(
    name: str,
    seed: int = 1,
    seconds: float = 10.0,
    traced: bool = False,
    scale: float | None = None,
    corrupt: bool = False,
) -> dict:
    """Run one workload in this process and return its outcome: the
    metrics it measured (``end_to_end``, ``per_layer``), ``attempted``,
    the list of ``failures``, a ``detail`` record and, when *traced*,
    the ``spans``.  *scale* and *corrupt* exist for the self-check."""
    tracer = Tracer()
    options = dict(
        seed=seed, seconds=seconds, traced=traced, tracer=tracer,
        scale=scale, corrupt=corrupt,
    )
    if name in READ_WORKLOADS:
        outcome = run_read_workload(name, **options)
    elif name == "ingest_mixed":
        outcome = run_ingest_workload(**options)
    elif name == "serve_mixed":
        outcome = run_serve_workload(**options)
    else:
        raise ValueError(f"unknown workload {name!r}")
    failed = len(outcome["failures"])
    outcome["failed"] = failed
    # ru_maxrss is in KiB on Linux.
    outcome["end_to_end"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    outcome["per_layer"]["failed_ops_share"] = failed / outcome["attempted"]
    outcome["spans"] = tracer.export() if traced else None
    return outcome


def select_metrics(outcome: dict, traced: bool, spec: dict) -> dict:
    """The declared metrics of this kind of run, each with its unit.

    Every end-to-end metric must have been measured.  A per-layer metric
    the workload does not produce reads 0: the workload does not
    exercise that layer.  Nothing undeclared gets out.
    """
    if not traced:
        measured = outcome["end_to_end"]
        return {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    measured = outcome["per_layer"]
    return {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec["per_layer"]
    }


def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "seed": seed,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "load_average": os.getloadavg(),
        "python": platform.python_version(),
        "REPRO_VECTOR_NUMPY": os.environ.get("REPRO_VECTOR_NUMPY"),
    }


def report(name: str, outcome: dict, metrics: dict, env: dict) -> None:
    print(f"== {name}  seed={env['seed']}  nproc={env['nproc']}  "
          f"load={env['load_average'][0]:.2f}  python={env['python']}  "
          f"REPRO_VECTOR_NUMPY={env['REPRO_VECTOR_NUMPY']}  git={env['git_sha']}")
    for metric, reading in metrics.items():
        print(f"  {metric:<42} {reading['value']:>16.6g} {reading['unit']}")
    for key, value in outcome["detail"].items():
        if isinstance(value, dict) and "median" in value:
            samples = ", ".join(f"{v:.4g}" for v in value["values"][:12])
            more = " ..." if value["n"] > 12 else ""
            print(f"  {key}: n={value['n']} median={value['median']:.5g} "
                  f"q1={value['q1']:.5g} q3={value['q3']:.5g} [{samples}{more}]")
    for failure in outcome["failures"][:20]:
        print(f"  FAILED: {failure}")
    print(f"  attempted={outcome['attempted']} failed={outcome['failed']}")


def main(argv: list[str] | None = None) -> int:
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    args = parser.parse_args(argv)

    if args.workload is None:
        # One process per workload: no workload inherits another's heap,
        # caches or peak memory.
        code = 0
        for name in names:
            code = max(code, subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
            ).returncode)
        return code

    traced = bool(args.trace)
    env = environment(args.seed)
    outcome = run_workload(args.workload, args.seed, args.seconds, traced)
    metrics = select_metrics(outcome, traced, spec)
    report(args.workload, outcome, metrics, env)
    OUT_DIR.mkdir(exist_ok=True)
    suffix = ".trace.json" if traced else ".json"
    (OUT_DIR / f"{args.workload}{suffix}").write_text(json.dumps(
        {
            "workload": args.workload,
            "environment": env,
            "seconds": args.seconds,
            "metrics": metrics,
            "end_to_end": outcome["end_to_end"],
            "per_layer": outcome["per_layer"],
            "detail": outcome["detail"],
            "failures": outcome["failures"],
            "spans": outcome["spans"],
        },
        indent=1,
    ))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if outcome["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
