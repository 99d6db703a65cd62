"""Workload inputs and the verdict oracle of the cpslie benchmark.

A workload is a list of CLI commands.  Its inputs are generated from the
workload seed into a work directory outside the source tree; the program
under test only ever sees those files and the command arguments.  Every
command carries the expectation the oracle checks its JSON against.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# The three algebras the classification excludes, with the obstruction kind
# each nonexistence report must name.
EXCLUDED = (
    ("(0,0,0,12,23,14-35)", "CenterTooSmall"),
    ("(0,0,12,13,23,14+25)", "CenterTooSmall"),
    ("(0,0,0,12,13+42,14+23)", "EncodedProof"),
)

# sha256 of the default JSON of each catalog-workload command, with the one
# seed-dependent detail string normalized (see `normalized_digest`).  The
# north star requires this output to stay byte-identical.
CATALOG_DIGEST = "3a43e3c366ae0aa92e7cb4322dc7cf534d86e6fe3f7f9c91312bb80f607b7d9f"
NONEXISTENCE_DIGESTS = {
    "(0,0,0,12,23,14-35)": "163e242b25c3d7c09bcd49dc9b0f099dae23bab44383731750431143c32e3e12",
    "(0,0,12,13,23,14+25)": "0f0dd4cef6cebcc630ab7486b5bd4f5635b3c0677ac2ff0b54c8b76cbb0b909c",
    "(0,0,0,12,13+42,14+23)": "0d5e7a608267b6a126f7fda3d831959117a3139c47506cbd7464eedd840acdb0",
}

# dense-lift conjugates a fixed set of witnesses, chosen to cover every
# bracket family, every double type, flat and non-flat connections, and
# rotated product structures: (catalog row, witness name).
DENSE_WITNESSES = (
    ("(0,0,0,0,12,14+25)", "r3r3-nonflat"),
    ("(0,0,0,0,13+42,14+23)", "r3r3"),
    ("(0,0,0,0,12,13)", "h3h3"),
    ("(0,0,0,12,13,23)", "h3r3"),
    ("(0,0,0,12,14,24)", "h3h3"),
    ("(0,0,0,12,13,14)", "split-nonflat"),
)
# Entries of the random basis change P: nonzero, so P is dense.
DENSE_ENTRIES = (-2, -1, 1, 2)

# Distinct non-flat cp-connection tensors among the stored witnesses.
NONFLAT_TENSORS = 7


@dataclass(frozen=True)
class Command:
    role: str  # "target" or "control": which end-to-end metric times it
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Inputs:
    commands: tuple[Command, ...]
    digest: str  # sha256 over the generated files and the command list


def generate(workload: str, seed: int, work: Path) -> Inputs:
    """Write the workload's input files under `work` and list its commands."""
    files, commands = GENERATORS[workload](seed)
    work.mkdir(parents=True, exist_ok=True)
    h = hashlib.sha256()
    for name, data in files:
        (work / name).write_bytes(data)
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    resolved = []
    for cmd in commands:
        argv = tuple(str(work / a[len("@"):]) if a.startswith("@") else a for a in cmd.argv)
        resolved.append(Command(cmd.role, argv, cmd.expect))
        h.update(json.dumps([cmd.role, cmd.argv, cmd.expect], sort_keys=True).encode())
    return Inputs(tuple(resolved), h.hexdigest())


def _catalog(seed: int):
    commands = [
        Command("target", ("verify-catalog", "--seed", str(seed)), {"digest": CATALOG_DIGEST, "seed": seed})
    ]
    for salamon, kind in EXCLUDED:
        commands.append(
            Command(
                "control",
                ("nonexistence", salamon, "--seed", str(seed)),
                {"kind": kind, "digest": NONEXISTENCE_DIGESTS[salamon], "seed": seed},
            )
        )
    return [], commands


def determinant(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def random_invertible(rng: random.Random, n: int) -> list[list[int]]:
    """A dense n x n integer matrix with entries in DENSE_ENTRIES; singular draws are rejected."""
    while True:
        p = [[rng.choice(DENSE_ENTRIES) for _ in range(n)] for _ in range(n)]
        if determinant(p) != 0:
            return p


def _cps_file(g, j, e) -> bytes:
    from cpslie.lie import algebra_to_json

    data = {"algebra": algebra_to_json(g), "J": {"matrix": j.to_json()}, "E": {"matrix": e.to_json()}}
    return (json.dumps(data, sort_keys=True, indent=1) + "\n").encode()


def _witness(row: str, name: str):
    from cpslie.catalog import load_catalog

    for entry in load_catalog():
        if entry.salamon == row:
            for w in entry.witnesses:
                if w.name == name:
                    return w
    raise LookupError(f"no stored witness {name!r} in row {row}")


def _dense_lift(seed: int):
    """Each witness conjugated by a seeded random invertible rational P.

    The algebra goes through `change_basis`; J and E become P^-1 J P and
    P^-1 E P.  A draw is also rejected while J or E keeps a zero entry, so
    every input is fully dense and the zero-skips of the exact kernels
    never fire on J and E.
    """
    from cpslie.catalog import witness_structure
    from cpslie.lie import change_basis
    from cpslie.linalg import QMatrix

    rng = random.Random(f"dense-lift:{seed}")
    files, commands = [], []
    for k, (row, name) in enumerate(DENSE_WITNESSES):
        w = _witness(row, name)
        g, cps = witness_structure(w)
        while True:
            p = QMatrix(random_invertible(rng, g.dim))
            pinv = p.inverse()
            j, e = pinv @ cps.j @ p, pinv @ cps.e @ p
            if all(x != 0 for m in (j, e) for r in m.entries for x in r):
                break
        fname = f"dense{k}.json"
        files.append((fname, _cps_file(change_basis(g, p), j, e)))
        types = [t.value for t in w.double_type]
        commands.append(Command("control", ("check-structure", "--cps", "@" + fname), {"double_type": types}))
        commands.append(Command("target", ("hypercomplex", "--cps", "@" + fname), {"base_flat": w.flat}))
    return files, commands


def _completeness(seed: int):
    """One seeded witness per distinct non-flat cp-connection tensor."""
    from cpslie.catalog import load_catalog, witness_structure
    from cpslie.connection import cp_connection

    groups: dict = {}
    for entry in load_catalog():
        for w in entry.witnesses:
            if not w.flat:
                g, cps = witness_structure(w)
                groups.setdefault(cp_connection(cps), []).append((g, cps))
    if len(groups) != NONFLAT_TENSORS:
        raise RuntimeError(f"expected {NONFLAT_TENSORS} non-flat tensors, found {len(groups)}")
    rng = random.Random(f"completeness:{seed}")
    files, commands = [], []
    for k, members in enumerate(groups.values()):
        g, cps = rng.choice(members)
        fname = f"nonflat{k}.json"
        files.append((fname, _cps_file(g, cps.j, cps.e)))
        for role, kind in (("target", "connection-report"), ("control", "geodesic")):
            commands.append(Command(role, (kind, "--cps", "@" + fname, "--seed", str(seed))))
    return files, commands


GENERATORS = {"catalog": _catalog, "dense-lift": _dense_lift, "completeness": _completeness}


def normalized_digest(text: str, seed: int) -> str:
    """sha256 of a command's JSON with its seed echo replaced by a placeholder."""
    return hashlib.sha256(text.replace(f"(seed={seed})", "(seed=S)").encode()).hexdigest()


def check(cmd: Command, code: int, text: str) -> bool:
    """True iff exit code and JSON verdict agree with the oracle."""
    if code != 0:
        return False
    out = json.loads(text)
    kind, want = cmd.kind, cmd.expect
    if kind == "verify-catalog":
        return out["passed"] is True and normalized_digest(text, want["seed"]) == want["digest"]
    if kind == "nonexistence":
        return (
            out["passed"] is True
            and out["kind"] == want["kind"]
            and normalized_digest(text, want["seed"]) == want["digest"]
        )
    if kind == "check-structure":
        return out["valid"] is True and out["double_type"] == want["double_type"]
    if kind == "hypercomplex":
        return out["base_flat"] is want["base_flat"] and out["obata_ricci_flat"] is True
    if kind == "connection-report":
        return (
            out["completeness"]["verdict"] is True
            and out["flat"] is False
            and out["ricci_flat"] is True
        )
    if kind == "geodesic":
        return out["verdict"] is True
    raise ValueError(f"no oracle for {kind!r}")
