"""Simulated shared-nothing cluster facades."""

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.workload_cluster import WorkloadCluster

__all__ = ["SimulatedCluster", "WorkloadCluster"]
