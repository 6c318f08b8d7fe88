"""``python -m repro.fuzz`` — the differential fuzzing oracle CLI.

Runs seeded random cases through the serial and thread backends and
the single-node reference (LocalExecutor, checked by sqlite3), statically
certifies every plan, and checks PREF invariants after every partition
and bulk-load step.  On the first divergence the case is minimised and
written to a replayable JSON repro; the exit status is 1.

Examples::

    python -m repro.fuzz --cases 500 --seed 0
    python -m repro.fuzz --seed 7 --cases 50 --backends serial,thread
    python -m repro.fuzz --replay fuzz-repro.json
"""

from __future__ import annotations

import argparse
import sys

from repro.engine.backends import backend_names
from repro.fuzz.ir import load_case
from repro.fuzz.runner import DEFAULT_BACKENDS, run_case, run_fuzz


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential fuzzing of PREF query processing",
    )
    parser.add_argument(
        "--cases", type=int, default=200, help="number of cases to run"
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--backends",
        default=",".join(DEFAULT_BACKENDS),
        help="comma-separated engine backends (serial, thread); serial is "
        "always the reference",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="write the raw failing case without minimising it",
    )
    parser.add_argument(
        "--max-shrink",
        type=int,
        default=250,
        help="attempt budget for the shrinker",
    )
    parser.add_argument(
        "--out",
        default="fuzz-repro.json",
        help="path for the (minimised) repro on failure",
    )
    parser.add_argument(
        "--replay",
        metavar="PATH",
        help="re-run a repro file instead of generating cases",
    )
    parser.add_argument(
        "--predicate-transfer",
        choices=("auto", "on", "off"),
        default="auto",
        help="variant-executor Bloom transfer: random per case (auto), "
        "forced on, or forced off",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    args = parser.parse_args(argv)
    try:
        backends = backend_names(args.backends)
    except ValueError as exc:
        parser.error(str(exc))
    if "serial" not in backends:
        backends = ("serial",) + backends

    if args.replay:
        case = load_case(args.replay)
        divergence = run_case(case, backends=backends)
        if divergence is None:
            print(f"replay {args.replay}: no divergence")
            return 0
        print(f"replay {args.replay}: {divergence.describe()}")
        return 1

    def progress(done: int, total: int) -> None:
        if not args.quiet and done % 50 == 0:
            print(f"  {done}/{total} cases clean", file=sys.stderr)

    overrides = None
    if args.predicate_transfer != "auto":
        overrides = {"predicate_transfer": args.predicate_transfer == "on"}

    report = run_fuzz(
        args.cases,
        args.seed,
        backends=backends,
        shrink_divergent=not args.no_shrink,
        out=args.out,
        max_shrink=args.max_shrink,
        progress=progress,
        variant_overrides=overrides,
    )
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
