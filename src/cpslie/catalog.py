"""The classification table of 6-dimensional nilpotent algebras with CPS.

Eighteen catalog entries: fifteen rows that admit complex product
structures (each "yes" cell backed by a stored witness: family
parameters plus an exact basis change onto the row's tuple form) and
the three excluded algebras, whose nonexistence arguments are replayed
computationally.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cache
from importlib import resources
from itertools import chain
from typing import TYPE_CHECKING

from .connection import Connection, cp_connection, curvature
from .lie import (
    LieAlgebra,
    ThreeDimType,
    center,
    change_basis,
    semidirect_product,
)
from .linalg import Q, QMatrix, SparseTensor, Subspace, basis_vec, q, vec, vec_neg
from .salamon import parse_salamon
from .structures import (
    CPS,
    Endo,
    StructureError,
    assemble_cps,
    cps_from_split,
    cps_obstructions,
    double_type,
    rotate_product,
)

if TYPE_CHECKING:
    from .poly import Poly

FAMILY_PARAMS = {
    "H3R_00": ("A", "B", "C", "D", "E", "F"),
    "H3R_10": ("A", "B", "C", "D", "E", "F"),
    "R4_00": ("A1", "A2", "B1", "B2", "D1", "D2"),
    "R4_10": ("A1", "A2", "C1", "C2", "D1", "D2"),
}

BASIS = ("e1", "e2", "e3", "f1", "f2", "f3")

COLUMN_LABELS = ("R3xR3", "H3xR3", "H3xH3")
COLUMN_TYPES = (
    frozenset({ThreeDimType.ABELIAN3}),
    frozenset({ThreeDimType.HEISENBERG3, ThreeDimType.ABELIAN3}),
    frozenset({ThreeDimType.HEISENBERG3}),
)

EXCLUDED = (
    "(0,0,0,12,23,14-35)",
    "(0,0,12,13,23,14+25)",
    "(0,0,0,12,13+42,14+23)",
)


class FamilyError(ValueError):
    pass


def _family_brackets(family: str, p: dict) -> dict:
    """Sparse brackets on the ordered basis e1,e2,e3,f1,f2,f3 (0..5).

    The parameter values `p` may be rationals or Polys.
    """
    e1, e2, e3, f1, f2, f3 = range(6)
    if family in ("H3R_00", "H3R_10"):
        alpha = 1 if family == "H3R_10" else 0
        br = {
            (e1, f1): {e2: p["A"], e3: p["B"], f2: p["C"], f3: p["D"]},
            (e2, f1): {e3: p["E"], f3: p["F"]},
            (e1, f2): {e3: p["E"], f3: p["F"] + alpha},
        }
        if alpha:
            br[(e1, e2)] = {e3: 1}
        return br
    if family == "R4_00":
        return {
            (e1, f1): {e3: p["A1"], f3: p["A2"]},
            (e1, f2): {e3: p["B1"], f3: p["B2"]},
            (e2, f1): {e3: p["B1"], f3: p["B2"]},
            (e2, f2): {e3: p["D1"], f3: p["D2"]},
        }
    if family == "R4_10":
        return {
            (e1, e2): {e3: 1},
            (e1, f1): {e3: p["A1"], f3: p["A2"]},
            (e2, f1): {e3: p["C1"], f3: p["C2"]},
            (e1, f2): {e3: p["C1"], f3: p["C2"] + 1},
            (e2, f2): {e3: p["D1"], f3: p["D2"]},
        }
    raise FamilyError(f"unknown family {family!r}")


def _standard_cps(m: int) -> tuple[Endo, Endo]:
    """J e_i = e_(m+i) and E = Id on the first m basis vectors, -Id on the last m."""
    z = QMatrix.zeros(m, m)
    ident = QMatrix.identity(m)
    return QMatrix.block([[z, -ident], [ident, z]]), QMatrix.diag_blocks(ident, -ident)


def _family_point(family: str, params) -> dict[str, Q]:
    """Every family parameter at `params`, absent ones 0; FamilyError on a name the family lacks."""
    if family not in FAMILY_PARAMS:
        raise FamilyError(f"unknown family {family!r}")
    names = FAMILY_PARAMS[family]
    if unknown := sorted(set(params) - set(names)):
        raise FamilyError(f"{family} has no parameter {', '.join(map(repr, unknown))}; its parameters are {names}")
    return {name: q(params.get(name, 0)) for name in names}


def family_data(family: str, params) -> tuple[LieAlgebra, Endo, Endo]:
    """Algebra and the standard J, E of a parameterized bracket family."""
    p = _family_point(family, params)
    if family in ("H3R_00", "H3R_10") and p["A"] ** 2 + p["C"] ** 2 == 0:
        raise FamilyError("side condition A^2 + C^2 != 0 violated")
    return (LieAlgebra.from_brackets(6, _family_brackets(family, p)), *_standard_cps(3))


def build_family(family: str, params) -> tuple[LieAlgebra, CPS]:
    """Build a family instance and its (re-verified) CPS."""
    g, j, e = family_data(family, params)
    return g, assemble_cps(g, j, e)


def _family_variables(family: str) -> dict[str, Poly]:
    # cpslie.poly is loaded here, on first use, so that commands that
    # prove no family flatness do not pay for compiling it at start-up
    from .poly import Poly

    if family not in FAMILY_PARAMS:
        raise FamilyError(f"unknown family {family!r}")
    names = FAMILY_PARAMS[family]
    return {name: Poly.var(names, name) for name in names}


def flatness_closed_form(family: str) -> Poly:
    """The polynomial in the family parameters whose vanishing is flatness of the cp connection.

    `prove_family_flatness` derives the curvature and certifies this form.
    """
    from .poly import Poly

    v = _family_variables(family)
    if family == "H3R_00":
        return v["A"] * v["F"] - v["C"] * v["E"]
    if family == "H3R_10":
        return v["A"] * (2 * v["F"] + 1) - 2 * v["C"] * v["E"]
    return Poly(FAMILY_PARAMS[family])  # the quotient-R4 families are flat throughout


def family_flatness_value(family: str, params) -> Q:
    """The closed form at one parameter point (absent parameters are 0)."""
    point = _family_point(family, params)
    return flatness_closed_form(family).subs(point).value()


def family_connection(family: str) -> Connection:
    """The cp connection of the family's standard pair, with `Poly` entries.

    Built by the code every instance runs: `LieAlgebra` checks Jacobi,
    `assemble_cps` every CPS axiom, `cp_connection` torsion-freeness and
    nabla J = nabla E = 0.  All of it is exact in Q[parameters], so each
    zero test is a polynomial identity.  Every denominator stays 1 (J, E
    and (Id +- E)/2 are integer matrices), so no Poly is divided by a gcd.
    A failed identity raises FamilyError.
    """
    try:
        g = LieAlgebra.from_brackets(6, _family_brackets(family, _family_variables(family)))
        return cp_connection(assemble_cps(g, *_standard_cps(3)))
    except ValueError as exc:
        raise FamilyError(f"{family}: {exc}") from exc


def prove_family_flatness(family: str) -> Poly:
    """Certify the flatness closed form of a family as polynomial identities.

    The torsion-free connection with J and E parallel is unique, so the
    `curvature` of `family_connection` (Poly scalars; ints for an instance)
    is that of every instance, and none needs building.  Every nonzero
    curvature entry must be a constant times the closed form, and one a
    nonzero constant unless the form is zero: the curvature vanishes
    exactly where the form does.  Returns the closed form; a failed
    identity raises FamilyError naming it.
    """
    from .poly import Poly

    form = flatness_closed_form(family)
    zero = Poly(form.names)  # an entry no parameter reached is an int; zero + x is a Poly
    curved = False
    for (i, j), m in curvature(family_connection(family)).r.items():
        for x in chain.from_iterable(m.num):
            if x and (not form or (zero + x).multiple_of(form) is None):
                where = f"R({BASIS[i]}, {BASIS[j]})"
                raise FamilyError(f"{family}: closed form {form} (curvature entry {x}) fails at {where}")
            curved = curved or bool(x)
    if form and not curved:
        raise FamilyError(f"{family}: closed form {form} (the curvature vanishes identically) fails at every pair")
    return form


@dataclass(frozen=True)
class Witness:
    name: str
    family: str
    params: dict
    basis_change: QMatrix
    target: str
    double_type: tuple[ThreeDimType, ThreeDimType]
    flat: bool
    rotation: Q | None = None
    slices: tuple[dict, ...] = ()
    explicit_j: Endo | None = None
    explicit_e: Endo | None = None


@dataclass(frozen=True)
class CatalogEntry:
    salamon: str
    admits: tuple[bool, bool, bool]
    flat_class: str  # FlatOnly | NonFlatOnly | Both | NoCPS
    witnesses: tuple[Witness, ...]
    obstruction: str | None = None
    nonflat_argument: str | None = None


def _witness_from_json(data: dict) -> Witness:
    rotation = None if data.get("rotation") is None else q(data["rotation"])
    explicit_j = explicit_e = None
    if data.get("explicit"):
        explicit_j = QMatrix.from_json(data["explicit"]["J"])
        explicit_e = QMatrix.from_json(data["explicit"]["E"])
    return Witness(
        name=data["name"],
        family=data["family"],
        params={k: q(v) for k, v in data.get("params", {}).items()},
        basis_change=QMatrix.from_json(data["basis_change"]),
        target=data["target"],
        double_type=(ThreeDimType(data["double_type"][0]), ThreeDimType(data["double_type"][1])),
        flat=bool(data["flat"]),
        rotation=rotation,
        slices=tuple(data.get("slices", ())),
        explicit_j=explicit_j,
        explicit_e=explicit_e,
    )


_CATALOG_CACHE: list[CatalogEntry] | None = None


def load_catalog() -> list[CatalogEntry]:
    global _CATALOG_CACHE
    if _CATALOG_CACHE is None:
        raw = json.loads(
            resources.files("cpslie").joinpath("data/witnesses.json").read_text()
        )
        entries = []
        for row in raw["entries"]:
            entries.append(
                CatalogEntry(
                    salamon=row["salamon"],
                    admits=tuple(bool(x) for x in row["admits"]),
                    flat_class=row["flat_class"],
                    witnesses=tuple(_witness_from_json(w) for w in row.get("witnesses", [])),
                    obstruction=row.get("obstruction"),
                    nonflat_argument=row.get("nonflat_argument"),
                )
            )
        _CATALOG_CACHE = entries
    return _CATALOG_CACHE


def table_rows() -> list[CatalogEntry]:
    return [e for e in load_catalog() if e.flat_class != "NoCPS"]


def excluded_entries() -> list[CatalogEntry]:
    return [e for e in load_catalog() if e.flat_class == "NoCPS"]


def _build_witness(w: Witness, stage, parse=parse_salamon) -> tuple[LieAlgebra | None, CPS | None]:
    """Algebra and the CPS the witness claims, with the rotation applied if any.

    Reports the "build" and "cps_valid" steps to `stage(name, ok, detail)`
    and stops at the first that fails; what it could not build is None.
    """
    try:
        if w.family == "Explicit":
            g, j, e = parse(w.target), w.explicit_j, w.explicit_e
        else:
            g, j, e = family_data(w.family, w.params)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        stage("build", False, str(exc))
        return None, None
    stage("build", True)
    try:
        cps = assemble_cps(g, j, e)
    except StructureError as exc:
        stage("cps_valid", False, ",".join(exc.failures))
        return g, None
    if w.rotation is not None:
        try:
            cps = assemble_cps(g, j, rotate_product(cps, w.rotation))
        except Exception as exc:  # noqa: BLE001
            stage("cps_valid", False, f"rotation: {exc}")
            return g, None
    stage("cps_valid", True)
    return g, cps


def witness_structure(w: Witness) -> tuple[LieAlgebra, CPS]:
    """Algebra plus the CPS the witness claims (rotation applied if any)."""

    def require(name, ok, detail=""):
        if not ok:
            raise ValueError(f"witness {w.name!r} fails {name}: {detail}")

    return _build_witness(w, require)


@dataclass(frozen=True)
class WitnessReport:
    name: str
    stages: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.stages)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "stages": [{"stage": s, "ok": ok, "detail": d} for s, ok, d in self.stages],
        }


def verify_witness(entry: CatalogEntry, w: Witness, parse=parse_salamon) -> WitnessReport:
    """Replays the witness certificate against the row, stage by stage; tuples are read with `parse`."""
    stages: list[tuple[str, bool, str]] = []

    def stage(name, ok, detail=""):
        stages.append((name, bool(ok), detail))
        return ok

    g, cps = _build_witness(w, stage, parse)
    if g is None:
        return WitnessReport(w.name, tuple(stages))

    try:
        if w.target != entry.salamon:
            raise ValueError("witness target differs from the row")
        moved = change_basis(g, w.basis_change)
        ok = moved == parse(entry.salamon)
        stage("basis_change", ok, "" if ok else "structure constants differ after basis change")
    except Exception as exc:  # noqa: BLE001
        stage("basis_change", False, str(exc))

    if cps is not None:
        types = double_type(cps)
        stage(
            "double_type",
            types == w.double_type,
            f"found ({types[0].value},{types[1].value})",
        )
        rep = curvature(cp_connection(cps))
        stage(
            "flatness",
            rep.is_flat == w.flat,
            f"curvature {'vanishes' if rep.is_flat else 'does not vanish'}",
        )
    else:
        stage("double_type", False, "no CPS to inspect")
        stage("flatness", False, "no CPS to inspect")
    return WitnessReport(w.name, tuple(stages))


def _equations(spec: dict, names) -> list[tuple[Poly, Poly]]:
    """The slice's equations "m = p" (m a monomial) as (m, p) pairs."""
    from .poly import Poly

    return [
        tuple(Poly.monomial(names, side) for side in equation.split("="))
        for equation in spec.get("equations", ())
    ]


def _restrict(form: Poly, spec: dict) -> Poly:
    """The form on a slice: the fixed values and 0 for every parameter that
    is not free, then each equation m = p used as the rewrite m -> p."""
    free = spec.get("free", ())
    values = {name: q(spec.get("fixed", {}).get(name, 0)) for name in form.names if name not in free}
    out = form.subs(values)
    for lhs, rhs in _equations(spec, form.names):
        out = out.rewrite(lhs.subs(values), rhs.subs(values))
    return out


def _on_slice(params: dict, spec: dict, names) -> bool:
    point = {name: params.get(name, Q(0)) for name in names}
    fixed, free = spec.get("fixed", {}), spec.get("free", ())
    return (
        all(point[name] == q(fixed.get(name, 0)) for name in names if name not in free)
        and all(point[name] != 0 for name in spec.get("nonzero", ()))
        and all((lhs - rhs).subs(point).is_zero() for lhs, rhs in _equations(spec, names))
    )


def _never_vanishes(value: Poly, nonzero) -> bool:
    """A nonzero constant times a product of the parameters that are nonzero on the slice."""
    return len(value.terms) == 1 and all(
        name in nonzero for name, k in zip(value.names, next(iter(value.terms))) if k
    )


def slice_flatness_check(w: Witness, expect_flat: bool, proofs: dict | None = None) -> tuple[bool, str]:
    """Restrict the family's certified flatness closed form to the witness's slices.

    expect_flat=True demands the form restrict to the zero polynomial on
    every recorded slice; False demands it restrict to a nonzero constant
    times a product of the slice's `nonzero` parameters, so it never
    vanishes there.  The witness's own parameters must lie on a slice.
    `proofs` caches `prove_family_flatness` per family for one catalog pass.
    """
    if not w.slices or w.family == "Explicit":
        return True, "no slice recorded"
    proofs = {} if proofs is None else proofs
    if w.family not in proofs:
        try:
            proofs[w.family] = prove_family_flatness(w.family)
        except FamilyError as exc:
            proofs[w.family] = exc
    form = proofs[w.family]
    if isinstance(form, FamilyError):
        return False, str(form)
    if not any(_on_slice(w.params, spec, form.names) for spec in w.slices):
        return False, "witness parameters lie on no recorded slice"
    for spec in w.slices:
        value = _restrict(form, spec)
        if not (value.is_zero() if expect_flat else _never_vanishes(value, spec.get("nonzero", ()))):
            return False, f"flatness value {value} on slice {spec}"
    return True, "slice consistent"


@dataclass(frozen=True)
class RowReport:
    salamon: str
    admits: tuple[bool, bool, bool]
    flat_class: str
    obstruction: str | None
    witness_reports: tuple[WitnessReport, ...]
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.witness_reports) and all(ok for _, ok, _ in self.checks)

    @property
    def witnesses_verified(self) -> bool:
        return all(r.passed for r in self.witness_reports)

    def to_json(self) -> dict:
        return {
            "salamon": self.salamon,
            "admits": dict(zip(COLUMN_LABELS, self.admits)),
            "flat_class": self.flat_class,
            "obstruction": self.obstruction,
            "witnesses_verified": self.witnesses_verified,
            "passed": self.passed,
            "witnesses": [r.to_json() for r in self.witness_reports],
            "checks": [{"check": c, "ok": ok, "detail": d} for c, ok, d in self.checks],
        }


def verify_row(entry: CatalogEntry, proofs: dict | None = None) -> RowReport:
    """Check a row's cells and flat class; `proofs` as in `slice_flatness_check`."""
    proofs = {} if proofs is None else proofs
    parse = cache(parse_salamon)  # algebras are immutable: the row's witnesses share one parse
    reports = [verify_witness(entry, w, parse) for w in entry.witnesses]
    checks: list[tuple[str, bool, str]] = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    pairs = list(zip(entry.witnesses, reports))
    for idx, flag in enumerate(entry.admits):
        col = COLUMN_LABELS[idx]
        matching = [(w, r) for w, r in pairs if frozenset(w.double_type) == COLUMN_TYPES[idx]]
        if flag:
            check(
                f"admits_{col}",
                any(r.passed for _, r in matching),
                "no verified witness of this double type" if not matching else "",
            )
        else:
            check(f"admits_{col}", not matching, "witness contradicts a 'no' cell" if matching else "")

    flats = [(w, r) for w, r in pairs if w.flat]
    nonflats = [(w, r) for w, r in pairs if not w.flat]
    if entry.flat_class == "FlatOnly":
        check("flat_class", bool(flats) and not nonflats)
        for w, _ in pairs:
            ok, detail = slice_flatness_check(w, True, proofs)
            check(f"slice_{w.name}", ok, detail)
    elif entry.flat_class == "NonFlatOnly":
        check("flat_class", bool(nonflats) and not flats)
        check("nonflat_argument", entry.nonflat_argument is not None)
        for w, _ in pairs:
            ok, detail = slice_flatness_check(w, False, proofs)
            check(f"slice_{w.name}", ok, detail)
    elif entry.flat_class == "Both":
        check(
            "flat_class",
            any(r.passed for _, r in flats) and any(r.passed for _, r in nonflats),
        )
    else:
        check("flat_class", False, f"unexpected class {entry.flat_class}")
    return RowReport(
        entry.salamon,
        entry.admits,
        entry.flat_class,
        entry.obstruction,
        tuple(reports),
        tuple(checks),
    )


@dataclass(frozen=True)
class TableReport:
    rows: tuple[RowReport, ...]
    excluded: tuple["NonexistenceReport", ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows) and all(r.passed for r in self.excluded)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "rows": [r.to_json() for r in self.rows],
            "excluded": [r.to_json() for r in self.excluded],
        }


def verify_table(seed: int = 0) -> TableReport:
    """Verify all fifteen admitting rows and the three excluded algebras."""
    proofs: dict = {}  # family certificates, proven once per pass
    rows = tuple(verify_row(entry, proofs) for entry in table_rows())
    excluded = tuple(nonexistence_report(entry.salamon, seed=seed) for entry in excluded_entries())
    return TableReport(rows, excluded)


@dataclass(frozen=True)
class NonexistenceReport:
    salamon: str
    kind: str
    stages: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.stages)

    def to_json(self) -> dict:
        return {
            "salamon": self.salamon,
            "kind": self.kind,
            "passed": self.passed,
            "stages": [{"stage": s, "ok": ok, "detail": d} for s, ok, d in self.stages],
        }


def nonexistence_report(salamon: str, seed: int = 0) -> NonexistenceReport:
    """Obstruction certificate for one of the three excluded algebras."""
    normalized = salamon.replace(" ", "")
    if normalized not in EXCLUDED:
        raise ValueError(f"{salamon!r} is not one of the excluded algebras")
    g = parse_salamon(normalized)
    if normalized != EXCLUDED[2]:
        obs = cps_obstructions(g)
        z = center(g)
        stages = (
            (
                "center_dimension",
                z.dim == 1,
                f"center has dimension {z.dim}",
            ),
            (
                "obstruction_raised",
                any(o.kind == "CenterTooSmall" for o in obs),
                "",
            ),
        )
        return NonexistenceReport(normalized, "CenterTooSmall", stages)
    return _encoded_proof_report(g, normalized, seed)


def _encoded_proof_report(g: LieAlgebra, salamon: str, seed: int) -> NonexistenceReport:
    stages: list[tuple[str, bool, str]] = []
    n = g.dim
    e = [basis_vec(n, i) for i in range(n)]

    # (a) e1, e2 in g+ would force two more generators into g+
    b1 = g.bracket(e[0], e[1])
    b2 = g.bracket(e[0], b1)
    span = Subspace.from_spanning([e[0], e[1], b1, b2], n)
    stages.append(
        (
            "plus_side_dimension_overflow",
            span.dim == 4,
            f"e1, e2, [e1,e2], [e1,[e1,e2]] span dimension {span.dim} > 3",
        )
    )

    # (b) generic commuting partner with y1 = y2 = 0 is forced central.  On
    # the y3..y6 columns of ad x, the y3, y4 columns have determinant
    # x1^2 + x2^2 in rows 5, 6; once that is nonzero, the kernel is
    # {y3 = y4 = 0} iff the y5 and y6 columns vanish
    rng = random.Random(seed)
    samples = 0
    ok_b = True
    detail_b = ""
    while samples < 200:
        x = vec([Q(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)])
        norm = x[0] ** 2 + x[1] ** 2
        if norm == 0:
            continue
        samples += 1
        adx = g.ad_vector(x)
        a = adx.num
        det = Q(a[4][2] * a[5][3] - a[4][3] * a[5][2], adx.den**2)
        if det != norm:
            ok_b = False
            detail_b = f"2x2 block determinant {det} != x1^2+x2^2 at sample {samples}"
            break
        if any(row[4] or row[5] for row in a):
            ok_b = False
            detail_b = f"kernel not {{y3=y4=0}} at sample {samples}"
            break
    stages.append(
        (
            "generic_pair_forces_center",
            ok_b,
            detail_b or f"200 seeded samples (seed={seed}) all force y3=y4=0",
        )
    )

    # (c) the center would sit inside g-, contradicting J-invariance of u
    z = center(g)
    ok_c = z.dim == 2
    stages.append(
        (
            "central_ideal_contradiction",
            ok_c,
            "center = the unique 2-dim central subspace; stages (a)+(b) push it into "
            "g-, but a J-invariant u inside g- satisfies u = J u within J g- = g+, "
            "forcing u = 0 and contradicting dim u = 2",
        )
    )
    return NonexistenceReport(salamon, "EncodedProof", tuple(stages))


FRIED_NABLA = (
    ((0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
    ((0, 0, 0, -1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, -1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
)


def fried_example():
    """The complete left-symmetric structure on the filiform algebra n4."""
    from .connection import LSAProduct

    n4 = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}, (0, 2): {3: 1}})
    # row k of the side layout is row k of every nabla_i, side by side
    side = QMatrix([[x for nabla in FRIED_NABLA for x in nabla[k]] for k in range(4)])
    return n4, LSAProduct(n4, SparseTensor(side))  # axioms re-verified by the constructor


def eight_dim_example():
    """n4 acting on itself by the Fried product: an 8-dimensional CPS."""
    n4, lsa = fried_example()
    g = semidirect_product(n4, lsa.nablas())
    return g, assemble_cps(g, *_standard_cps(4))


def heisenberg_complex_examples():
    """Three CPS on the realified complex Heisenberg algebra.

    Double types: (abelian, abelian), (abelian, Heisenberg), and
    (Heisenberg, Heisenberg).
    """
    g = parse_salamon("(0,0,0,0,13+42,14+23)")
    e = [basis_vec(6, i) for i in range(6)]

    j1 = QMatrix.from_cols([e[2], e[3], vec_neg(e[0]), vec_neg(e[1]), e[5], vec_neg(e[4])])
    cps1 = cps_from_split(g, j1, [e[0], e[1], e[4]], [e[2], e[3], e[5]])

    # J e1 = e2 - e4, J e2 = -(e1 + e3); squares to -Id
    j2 = QMatrix.from_cols(
        [
            vec(( 0, 1, 0, -1, 0, 0)),
            vec((-1, 0, -1, 0, 0, 0)),
            vec(( 0, 0, 0, 1, 0, 0)),
            vec(( 0, 0, -1, 0, 0, 0)),
            e[5],
            vec_neg(e[4]),
        ]
    )
    plus2 = [e[0], e[1], e[4]]
    minus2 = [vec((1, 0, 1, 0, 0, 0)), vec((0, -1, 0, 1, 0, 0)), e[5]]
    cps2 = cps_from_split(g, j2, plus2, minus2)

    plus3 = [vec((1, 1, 1, 0, 0, 0)), vec((1, -1, 0, 1, 0, 0)), vec((0, 0, 0, 0, 1, -1))]
    minus3 = [vec((-1, 1, -1, 0, 0, 0)), vec((1, 1, 0, -1, 0, 0)), vec((0, 0, 0, 0, 1, 1))]
    cps3 = cps_from_split(g, j2, plus3, minus3)
    return [(g, cps1), (g, cps2), (g, cps3)]
