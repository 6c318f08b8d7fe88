"""Shared pytest fixtures."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import (  # noqa: E402
    all_hashed_config,
    patch_pref_leaves,
    pref_chain_config,
    ref_chain_config,
    shop_database,
)
from repro.design import SchemaDrivenDesigner  # noqa: E402
from repro.design.baselines import all_hashed  # noqa: E402
from repro.partitioning import partition_database  # noqa: E402
from repro.workloads.tpch import SMALL_TABLES, generate_tpch  # noqa: E402


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


@pytest.fixture(scope="module")
def tpch_stores(tiny_tpch):
    """``tiny_tpch`` stored under the three designs the engine tests sweep."""
    pref = SchemaDrivenDesigner(tiny_tpch, 4).design(
        replicate=SMALL_TABLES
    ).config
    return {
        "sd_pref": partition_database(tiny_tpch, pref),
        "all_hashed": partition_database(tiny_tpch, all_hashed(tiny_tpch, 4)),
        "patched_pref": partition_database(
            tiny_tpch, patch_pref_leaves(pref, tiny_tpch.schema)
        ),
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
