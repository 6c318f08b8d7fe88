"""Differential fuzzing oracle for PREF query processing.

The fuzzer generates random schemas, partitioning configurations (PREF
chains included), NULL-bearing skewed data and SPJA queries; runs every
query on the serial and thread backends of the engine; and
checks rows against the single-node answer of
:class:`~repro.query.local_executor.LocalExecutor`, which ``sqlite3`` —
sharing no code with the engine — checks in turn.  PREF invariants
(:func:`~repro.partitioning.invariants.check_pref_invariants`) are checked
after the initial partitioning and after every bulk load.

Any divergence is minimised by a delta-debugging shrinker and written out
as a replayable JSON repro: ``python -m repro.fuzz --replay repro.json``.
"""

from repro.fuzz.generator import generate_case
from repro.fuzz.ir import build_config, build_database, build_plan
from repro.fuzz.runner import Divergence, FuzzReport, run_case, run_fuzz
from repro.fuzz.shrinker import shrink

__all__ = [
    "Divergence",
    "FuzzReport",
    "build_config",
    "build_database",
    "build_plan",
    "generate_case",
    "run_case",
    "run_fuzz",
    "shrink",
]
