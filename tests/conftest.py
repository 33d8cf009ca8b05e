"""Shared test fixtures and helpers."""

from __future__ import annotations

import gc

import pytest

from repro.core import paper_cluster, paper_wan_pair, paper_lossy_pair
from tests.helpers import DEFAULT_GC, run  # noqa: F401 - re-exported convenience


@pytest.fixture
def cluster():
    """The paper's 2-node Myrinet + Ethernet cluster, booted."""
    fw, group = paper_cluster(2)
    return fw, group


@pytest.fixture
def cluster4():
    """A 4-node Myrinet + Ethernet cluster, booted."""
    fw, group = paper_cluster(4)
    return fw, group


@pytest.fixture
def ethernet_cluster():
    """A 2-node cluster with only Fast Ethernet (no SAN)."""
    fw, group = paper_cluster(2, myrinet=False, ethernet=True)
    return fw, group


@pytest.fixture
def wan_pair():
    """Two sites joined by the VTHD WAN."""
    fw, group = paper_wan_pair()
    return fw, group


@pytest.fixture
def lossy_pair():
    """Two nodes across the lossy trans-continental link."""
    fw, group = paper_lossy_pair()
    return fw, group


@pytest.fixture
def gc_defaults():
    """Collector enabled at the default thresholds; the caller's collector
    state is restored afterwards."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(*DEFAULT_GC)
    yield
    gc.set_threshold(*threshold)
    if enabled:
        gc.enable()
    else:
        gc.disable()
