"""Shared pytest fixtures."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import (  # noqa: E402
    all_hashed_config,
    pref_chain_config,
    ref_chain_config,
    shop_database,
    tpcds_stores,
    tpch_certify_stores,
)
from repro.partitioning import partition_database  # noqa: E402
from repro.workloads.tpch import generate_tpch  # noqa: E402


@pytest.fixture(scope="session")
def shop_db():
    """A deterministic shop database shared across tests (read-only)."""
    return shop_database(seed=7)


@pytest.fixture(scope="session")
def tiny_tpch():
    """A very small TPC-H database (read-only)."""
    return generate_tpch(scale_factor=0.001, seed=3)


@pytest.fixture(scope="session")
def small_tpch():
    """A small TPC-H database for integration tests (read-only)."""
    return generate_tpch(scale_factor=0.002, seed=5)


@pytest.fixture(scope="session")
def tpch_partitioned(small_tpch):
    """``small_tpch`` under the certifier's three configs (read-only)."""
    return tpch_certify_stores(small_tpch)


@pytest.fixture(scope="session")
def tpcds_partitioned():
    """TPC-DS under SD-PREF and all-hashed (read-only)."""
    return tpcds_stores()


@pytest.fixture(scope="module")
def tpch_stores(tiny_tpch):
    """``tiny_tpch`` stored under the three designs the engine tests sweep."""
    stores = tpch_certify_stores(tiny_tpch)
    return {
        "sd_pref": stores["pref"],
        "all_hashed": stores["hashed"],
        "patched_pref": stores["patched"],
    }


@pytest.fixture
def shop_pref(shop_db):
    """Shop database partitioned under the PREF chain configuration."""
    config = pref_chain_config(4)
    return partition_database(shop_db, config), config


@pytest.fixture
def shop_ref(shop_db):
    """Shop database partitioned under the REF-like chain configuration."""
    config = ref_chain_config(4)
    return partition_database(shop_db, config), config


@pytest.fixture
def shop_hashed(shop_db):
    """Shop database with every table hash-partitioned on its key."""
    config = all_hashed_config(4)
    return partition_database(shop_db, config), config
