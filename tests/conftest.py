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


@pytest.fixture
def packed_rows(monkeypatch):
    """The number of product rows that took the packed path so far."""
    from cpslie import linalg

    rows = []
    times = linalg._PackedRows.times
    monkeypatch.setattr(linalg._PackedRows, "times", lambda self, a: rows.append(1) or times(self, a))
    return rows
