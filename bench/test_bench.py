"""Tests of the benchmark itself: oracle accounting, input generation, tracing.

Run from the repository root with `python3 -m pytest bench/test_bench.py`.
"""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from run import Runner  # noqa: E402
from spans import Tracer  # noqa: E402


def test_planted_wrong_expectation_is_counted_as_failure(tmp_path):
    _, commands = workloads.GENERATORS["catalog"](3)
    control = commands[1]  # nonexistence of a CenterTooSmall algebra
    planted = replace(control, expect=dict(control.expect, kind="EncodedProof"))
    runner = Runner([control, planted], tmp_path / "out.json")
    runner.timed(0)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_dense_lift_inputs_are_byte_identical_per_seed(tmp_path):
    a = workloads.generate("dense-lift", 5, tmp_path / "a")
    b = workloads.generate("dense-lift", 5, tmp_path / "b")
    c = workloads.generate("dense-lift", 6, tmp_path / "c")
    assert a.digest == b.digest != c.digest
    for f in (tmp_path / "a").iterdir():
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


class ScriptedRng:
    def __init__(self, values):
        self.values = iter(values)

    def choice(self, _options):
        return next(self.values)


def test_random_invertible_rejects_singular_draws():
    singular = [1] * 4  # rank one
    regular = [2, 1, 1, 1]
    p = workloads.random_invertible(ScriptedRng(singular + regular), 2)
    assert p == [[2, 1], [1, 1]]
    assert workloads.determinant(p) == 1


def test_tracer_wraps_binding_sites_and_restores_them():
    import cpslie.linalg as linalg
    import cpslie.structures as structures

    original = linalg.kernel
    tracer = Tracer()
    tracer.install()
    try:
        assert structures.kernel is linalg.kernel is not original
        structures.kernel(linalg.QMatrix([[1, 2], [2, 4]]))
    finally:
        tracer.uninstall()
    assert structures.kernel is linalg.kernel is original
    assert tracer.names[0] == "linalg.kernel"
    assert "linalg.Subspace.from_spanning" in tracer.names
    own = tracer.self_times()
    children = sum(e - s for s, e, p in zip(tracer.starts, tracer.ends, tracer.parents) if p == 0)
    assert abs(own[0] - (tracer.ends[0] - tracer.starts[0] - children)) < 1e-12
