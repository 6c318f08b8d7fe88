"""Execution options: the one declaration of what a query run can vary.

The paper's evaluation compares configurations of one engine — the
Section 2.2 locality cases and the ``hasS`` rewrites switched on and off
(Fig. 9) — to which this repository added Bloom predicate transfer.
Every layer that runs queries (:class:`~repro.query.executor.Executor`,
:class:`~repro.cluster.SimulatedCluster`, the CLI, the bench harness, the
fuzzer's per-case variant) takes one :class:`ExecOptions` value; names,
defaults and validation live here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExecOptions:
    """How plans are rewritten and run; answers are invariant in all of it.

    Attributes:
        optimizations: Enable the paper's hasS-index rewrites.
        locality: Ablation switch — with ``False`` the rewriter ignores
            the co-partitioning cases (1)-(3) and shuffles every join, as
            an engine unaware of PREF placement would.
        predicate_transfer: Transfer Bloom filters across the join graph
            (pre-filters scans so fewer rows are shuffled and probed).
    """

    optimizations: bool = True
    locality: bool = True
    predicate_transfer: bool = False

    def __post_init__(self) -> None:
        for name in ("optimizations", "locality", "predicate_transfer"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(
                    f"{name} must be True or False, got {value!r}"
                )
