"""cpslie benchmark: one workload, one process, one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Every command goes through the public CLI entry point `cpslie.cli.main`
and its JSON verdict is checked by the oracle in `workloads.py`.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are `#` comments
with sample counts, percentiles and the environment.

With `--trace 0` the end-to-end metrics come from untraced runs.  With
`--trace 1` the per-layer metrics come from one traced pass, made after
the untraced runs it is compared against.

Times are scaled to a reference host speed.  The shared hosts this runs on
change speed by up to 2x for seconds to minutes at a time, which no
statistic over one run can filter when the slow phase outlasts the run.
So a fixed calibration slice of Fraction, small-numpy and dict work (the
program's kinds of work) runs before the first timed command and
after every one, and each command's time is multiplied by CAL_REF_S over
the mean of the two slices around it: a command that takes 30 calibration
slices reports 30 * CAL_REF_S wherever it runs.  Raw wall times are
printed as comment lines.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from spans import LAYERS, Tracer

WORK_DIR = ".bench_work"
SETUP_REPEATS = 7
BLAS_THREADS = "1"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CODE = (
    "import time; t = time.perf_counter(); import cpslie.cli; "
    "from cpslie.catalog import load_catalog; load_catalog(); print(time.perf_counter() - t)"
)

# Per-layer groups: metric prefix -> traced span names.  Each group reports
# `<prefix>_calls` and `<prefix>_s` (summed self time).
GROUPS = {
    "linalg.matmul": ("linalg.QMatrix.__matmul__",),
    "linalg.apply": ("linalg.QMatrix.apply",),
    "linalg.subspace": (
        "linalg.kernel",
        "linalg.intersect",
        "linalg.preimage",
        "linalg.rank",
        "linalg.Subspace.from_spanning",
    ),
    "linalg.inverse": ("linalg.QMatrix.inverse",),
    "lie.bracket": ("lie.LieAlgebra.bracket",),
    "lie.jacobi": ("lie.jacobi_defect",),
    "lie.change_basis": ("lie.change_basis",),
    "salamon.parse": ("salamon.parse_salamon",),
    "structures.validate_cps": ("structures.validate_cps",),
    "structures.integrability": (
        "structures.complex_integrability_defect",
        "structures.product_integrability_defect",
    ),
    "structures.eigenspaces": ("structures.eigenspaces",),
    "connection.cp_connection": ("connection.cp_connection",),
    "connection.curvature": ("connection.curvature",),
    "connection.defect": ("connection.torsion_defect", "connection.parallel_defect"),
    "connection.rk4": ("connection.integrate_geodesics",),
    "connection.fit": ("connection.quadratic_geodesic_certificate",),
    "hypercomplex.lift": ("hypercomplex.lift_cps",),
    "hypercomplex.obata": ("hypercomplex.obata_connection",),
    "catalog.verify_witness": ("catalog.verify_witness",),
    "catalog.slice_check": ("catalog.slice_flatness_check",),
    "catalog.family_build": ("catalog.family_data", "catalog.build_family"),
    "catalog.nonexistence": ("catalog.nonexistence_report",),
}
RATIOS = {
    "structures.validate_useful_ratio": "structures.validate_cps",
    "connection.cp_connection_useful_ratio": "connection.cp_connection",
    "connection.curvature_useful_ratio": "connection.curvature",
}
# Counts printed per command kind in the traced run's comment lines.
KIND_COUNTS = ("structures.validate_cps", "connection.cp_connection", "connection.curvature", "lie.bracket", "linalg.matmul")


# Calibration slice: fixed amounts of the program's kinds of work.  Products
# of a 6x6 matrix of small Fractions and of an 8x8 matrix of tall ones,
# normalized 6x6 float mat-vecs, and building tuple-keyed dicts.  CAL_REF_S
# is about the slice's time on the 2-core x86-64 host the benchmark was
# tuned on; it only sets the scale of the reported times.
CAL_SMALL_ROUNDS = 45
CAL_TALL_ROUNDS = 12
CAL_STEPS = 7000
CAL_DICT_ROUNDS = 24
CAL_REF_S = 0.18
_CAL_SMALL = [[Fraction(i + 2 * j + 1, j + 3) for j in range(6)] for i in range(6)]
_CAL_TALL = [
    [Fraction(10**12 + 7919 * (8 * i + j) + 1, 10**11 + 104729 * (i + 2 * j) + 3) for j in range(8)]
    for i in range(8)
]


def _fraction_products(m, rounds: int):
    n = len(m)
    for _ in range(rounds):
        [[sum((r[k] * m[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for r in m]


def calibrate() -> float:
    """Seconds for one fixed calibration slice."""
    import numpy

    a = numpy.array([[float(x) for x in row] for row in _CAL_SMALL]) / 6
    t0 = time.perf_counter()
    _fraction_products(_CAL_SMALL, CAL_SMALL_ROUNDS)
    _fraction_products(_CAL_TALL, CAL_TALL_ROUNDS)
    x = numpy.ones(6)
    for _ in range(CAL_STEPS):
        x = a @ x
        x = x / numpy.linalg.norm(x)
    for _ in range(CAL_DICT_ROUNDS):
        d = {}
        for i in range(4000):
            d[(i % 37, i % 11, i)] = [i, i + 1]
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at reference speed, given the calibration slices around it."""
    return seconds * CAL_REF_S * 2 / (before + after)


def percentile_line(name: str, values: list[float]) -> str:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    line = f"# {name}: median={statistics.median(values):.6g} n={len(values)}"
    for p in (99.9, 99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            line += f" p{p:g}={q:.6g}"
            break
    return line


def measure_setup(root: Path, src: Path) -> tuple[list[float], list[float]]:
    """Fresh interpreters: `import cpslie.cli` plus `load_catalog()`, the cost every CLI call pays.

    Returns the raw and the scaled samples.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    raw, scaled_samples = [], []
    before = calibrate()
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        after = calibrate()
        if i:  # the first interpreter may also write the bytecode cache
            raw.append(float(done.stdout.split()[-1]))
            scaled_samples.append(scaled(raw[-1], before, after))
        before = after
    return raw, scaled_samples


class Runner:
    """Runs commands through `cpslie.cli.main`, times them and checks their verdicts."""

    def __init__(self, commands, out: Path):
        import cpslie.cli

        self.cli = cpslie.cli
        self.commands = commands
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.samples: list[list[float]] = [[] for _ in commands]  # raw timed latencies per command
        self.scaled: list[list[float]] = [[] for _ in commands]  # the same at reference speed
        self.calibrations: list[float] = []

    def run(self, cmd) -> float:
        self.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = self.cli.main([*cmd.argv, "--out", str(self.out)])
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - a crash is a failed command
            code = None
            print(f"# command {' '.join(cmd.argv)} raised {exc!r}")
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        try:
            ok = code is not None and workloads.check(cmd, code, self.out.read_text())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"# command {' '.join(cmd.argv)}: unreadable output {exc!r}")
            ok = False
        if not ok:
            self.failed += 1
            print(f"# FAIL {' '.join(cmd.argv)} exit={code}")
        return elapsed

    def warm_up(self):
        """One untimed run of the first command of each kind."""
        for kind in dict.fromkeys(cmd.kind for cmd in self.commands):
            self.run(next(cmd for cmd in self.commands if cmd.kind == kind))

    def timed(self, seconds: float):
        """Closed loop over the commands in order until `seconds` have elapsed and each has run once.

        A calibration slice runs before the first command and after every command.
        """
        t0 = time.perf_counter()
        before = calibrate()
        i = 0
        while i < len(self.commands) or time.perf_counter() - t0 < seconds:
            k = i % len(self.commands)
            dt = self.run(self.commands[k])
            after = calibrate()
            self.samples[k].append(dt)
            self.scaled[k].append(scaled(dt, before, after))
            self.calibrations.append(after)
            before = after
            i += 1

    def latency(self, role: str) -> float:
        """Mean over the role's commands of each command's median scaled latency."""
        return statistics.fmean(
            statistics.median(s) for cmd, s in zip(self.commands, self.scaled) if cmd.role == role
        )

    def pass_s(self) -> float:
        """One pass at each command's median raw latency."""
        return sum(statistics.median(s) for s in self.samples)

    def by_kind(self, samples) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for cmd, values in zip(self.commands, samples):
            out.setdefault(cmd.kind, []).extend(values)
        return out


def layer_metrics(tracer, traced_pass_s: float, untraced_pass_s: float) -> dict:
    totals = tracer.totals()
    metrics = {}
    for prefix, names in GROUPS.items():
        metrics[f"{prefix}_calls"] = (sum(totals[n][0] for n in names if n in totals), "count")
        metrics[f"{prefix}_s"] = (sum(totals[n][1] for n in names if n in totals), "s")
    for name, span in RATIOS.items():
        calls = totals[span][0] if span in totals else 0
        metrics[name] = (len(tracer.distinct[span]) / calls if calls else 1.0, "ratio")
    flops = 2 * tracer.rk4_madds
    rk4_s = metrics["connection.rk4_s"][0]
    metrics["connection.rk4_flops"] = (flops, "flop")
    metrics["connection.rk4_gflops"] = (flops / rk4_s / 1e9 if rk4_s else 0.0, "Gflop/s")
    for layer in LAYERS:
        own = sum(s for n, (_, s) in totals.items() if n.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (own, "s")
    metrics["trace.overhead_ratio"] = (traced_pass_s / untraced_pass_s, "ratio")
    return metrics


def print_kind_summary(tracer, commands):
    """Per command kind: traced wall time, the KIND_COUNTS counts and the top self-time spans."""
    kinds = {i: cmd.kind for i, cmd in enumerate(commands)}
    per_kind = tracer.totals(kinds)
    for kind in dict.fromkeys(kinds.values()):
        wall = sum(
            e - s
            for s, e, p, c in zip(tracer.starts, tracer.ends, tracer.parents, tracer.commands)
            if p < 0 and kinds[c] == kind
        )
        counts = " ".join(
            f"{g}_calls={sum(per_kind[(kind, n)][0] for n in GROUPS[g] if (kind, n) in per_kind)}"
            for g in KIND_COUNTS
        )
        top = sorted(((t, n) for (k, n), (_, t) in per_kind.items() if k == kind), reverse=True)[:4]
        print(f"# trace {kind}: wall_s={wall:.4g} {counts}")
        print(f"# trace {kind} top self time: " + ", ".join(f"{n}={t:.4g}s" for t, n in top))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cpslie benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "cpslie" / "__init__.py").is_file():
        print("bench/run.py: no cpslie sources under ./src; run it from the repository root", file=sys.stderr)
        return 2
    # Pin BLAS threads before numpy is imported here or in a child.
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    setup = None if args.trace else measure_setup(root, src)
    import cpslie
    import numpy

    if Path(cpslie.__file__).resolve().parent != (src / "cpslie").resolve():
        print(f"bench/run.py: imported cpslie from {cpslie.__file__}, not from ./src", file=sys.stderr)
        return 2

    work = root / WORK_DIR / f"{args.workload}-{args.seed}"
    inputs = workloads.generate(args.workload, args.seed, work)
    runner = Runner(inputs.commands, work / "out.json")
    print(
        f"# env python={sys.version.split()[0]} numpy={numpy.__version__} nproc={os.cpu_count()} "
        f"blas_threads={BLAS_THREADS} workload={args.workload} seed={args.seed} "
        f"commands_per_pass={len(inputs.commands)} inputs_sha256={inputs.digest}"
    )

    runner.warm_up()
    runner.timed(args.seconds)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            for cmd_id, cmd in enumerate(runner.commands):
                tracer.command = cmd_id
                runner.run(cmd)
            traced_pass_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.csv")
        metrics = layer_metrics(tracer, traced_pass_s, runner.pass_s())
        print_kind_summary(tracer, runner.commands)
        print("# connection.rk4_flops and connection.rk4_gflops are computed from array shapes, not measured")
    else:
        setup_raw, setup_scaled = setup
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "target_ms": (1000 * runner.latency("target"), "ms"),
            "control_ms": (1000 * runner.latency("control"), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(percentile_line("calibration_ms (raw)", [1000 * c for c in runner.calibrations]))
        print(percentile_line("setup_s (raw)", setup_raw))
        print(f"# pass_s (raw, median latencies)={runner.pass_s():.6g}")
        for kind, values in runner.by_kind(runner.samples).items():
            print(percentile_line(f"{kind}_ms (raw)", [1000 * v for v in values]))
        for kind, values in runner.by_kind(runner.scaled).items():
            print(percentile_line(f"{kind}_ms (scaled)", [1000 * v for v in values]))
    print(f"# fail_ratio={runner.failed / runner.attempted:.6g} ({runner.failed} of {runner.attempted} commands)")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
