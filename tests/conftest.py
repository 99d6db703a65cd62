"""Fixtures shared by the test modules."""

import importlib
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's input generator and oracle, bench/workloads.py, imported
    under the name `workloads`, as bench/test_bench.py imports it."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
