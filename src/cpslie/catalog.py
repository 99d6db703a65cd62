"""The classification table of 6-dimensional nilpotent algebras with CPS.

Eighteen catalog entries: fifteen rows that admit complex product
structures and the three excluded algebras, whose nonexistence
arguments are replayed computationally.  Each "yes" cell is backed by a
stored witness: a point of one of the four bracket families with its
standard J and E, the rotation of E if one is recorded, and an exact
basis change onto the row's tuple form.
"""

from __future__ import annotations

import json
import os
import random
from functools import cache
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from .connection import Connection, curvature
from .lie import (
    LieAlgebra,
    ThreeDimType,
    center,
    change_basis,
    iso_type_3d,
)
from .linalg import Q, QMatrix, Subspace, _shown, basis_vec, q, vec
from .salamon import parse_salamon
from .structures import (
    CPS,
    Endo,
    StructureError,
    assemble_cps,
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

class FamilyError(ValueError):
    pass


def _family_brackets(family: str, p: dict) -> dict:
    """Sparse brackets on the ordered basis e1,e2,e3,f1,f2,f3 (0..5).

    `p` is a point from `_family_point`: rationals, or the family's Polys.
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
    return {  # R4_10
        (e1, e2): {e3: 1},
        (e1, f1): {e3: p["A1"], f3: p["A2"]},
        (e2, f1): {e3: p["C1"], f3: p["C2"]},
        (e1, f2): {e3: p["C1"], f3: p["C2"] + 1},
        (e2, f2): {e3: p["D1"], f3: p["D2"]},
    }


def _standard_cps(m: int) -> tuple[Endo, Endo]:
    """J e_i = e_(m+i) and E = Id on the first m basis vectors, -Id on the last m."""
    z = QMatrix.zeros(m, m)
    ident = QMatrix.identity(m)
    return QMatrix.block([[z, -ident], [ident, z]]), QMatrix.diag_blocks(ident, -ident)


def _family_point(family: str, params) -> dict:
    """Every family parameter at `params`, absent ones 0; a `Poly` in the family's own variables
    passes as it is, any other value goes through `q`.  The one FamilyError for a family or a name."""
    if family not in FAMILY_PARAMS:
        raise FamilyError(f"unknown family {family!r}")
    names = FAMILY_PARAMS[family]
    if unknown := sorted(set(params) - set(names)):
        raise FamilyError(f"{family} has no parameter {', '.join(map(repr, unknown))}; its parameters are {names}")
    values = ((name, params.get(name, 0)) for name in names)
    return {name: x if getattr(x, "names", None) == names else q(x) for name, x in values}


def family_data(family: str, params, rotation: Q | None = None) -> tuple[LieAlgebra, Endo, Endo]:
    """Algebra and the standard J, E of a bracket family, at a rational point or over its variables;
    E rotated by `rotate_product` if a `rotation` is given."""
    p = _family_point(family, params)
    # A*A: Poly has no **; over the variables the sum is never the zero polynomial
    if family in ("H3R_00", "H3R_10") and p["A"] * p["A"] + p["C"] * p["C"] == 0:
        raise FamilyError("side condition A^2 + C^2 != 0 violated")
    j, e = _standard_cps(3)
    e = e if rotation is None else rotate_product(j, e, rotation)
    return LieAlgebra.from_brackets(6, _family_brackets(family, p)), j, e


def build_family(family: str, params, rotation: Q | None = None) -> tuple[LieAlgebra, CPS]:
    """Build a family instance, or the family over `_family_variables`, and its (re-verified) CPS."""
    g, j, e = family_data(family, params, rotation)
    return g, assemble_cps(g, j, e)


def _family_variables(family: str) -> dict[str, Poly]:
    # cpslie.poly is loaded here, on first use, so that commands that
    # prove no family flatness do not pay for compiling it at start-up
    from .poly import Poly

    names = tuple(_family_point(family, {}))
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


def prove_family_flatness(family: str, connection: Connection) -> Poly:
    """Certify the flatness closed form of a family as polynomial identities.

    `connection` is the cp connection of the family's certificate over
    its variables (`build_family` on `_family_variables`, Poly scalars).
    The torsion-free connection with J and E parallel is unique, so its
    `curvature` is that of every instance, and none needs building.  Every nonzero
    curvature entry must be a constant times the closed form, and one a
    nonzero constant unless the form is zero: the curvature vanishes
    exactly where the form does.  Returns the closed form; a failed
    identity raises FamilyError naming it.
    """
    from .poly import Poly

    form = flatness_closed_form(family)
    zero = Poly(form.names)  # an entry no parameter reached is an int; zero + x is a Poly
    curved = False
    for (i, j), m in curvature(connection).r.items():
        for x in chain.from_iterable(m.num):
            if x and (not form or (zero + x).multiple_of(form) is None):
                where = f"R({BASIS[i]}, {BASIS[j]})"
                raise FamilyError(f"{family}: closed form {form} (curvature entry {x}) fails at {where}")
            curved = curved or bool(x)
    if form and not curved:
        raise FamilyError(f"{family}: closed form {form} (the curvature vanishes identically) fails at every pair")
    return form


class Witness(NamedTuple):
    name: str
    family: str
    params: dict
    basis_change: QMatrix
    double_type: tuple[ThreeDimType, ThreeDimType]
    flat: bool
    rotation: Q | None = None
    slices: tuple[dict, ...] = ()


class CatalogEntry(NamedTuple):
    salamon: str
    admits: tuple[bool, bool, bool]
    flat_class: str  # FlatOnly | NonFlatOnly | Both | NoCPS
    witnesses: tuple[Witness, ...]
    obstruction: str | None = None
    nonflat_argument: str | None = None


def _witness_from_json(data: dict) -> Witness:
    rotation = None if data.get("rotation") is None else q(data["rotation"])
    return Witness(
        name=data["name"],
        family=data["family"],
        params={k: q(v) for k, v in data.get("params", {}).items()},
        basis_change=QMatrix.from_json(data["basis_change"], "basis_change"),
        double_type=(ThreeDimType(data["double_type"][0]), ThreeDimType(data["double_type"][1])),
        flat=bool(data["flat"]),
        rotation=rotation,
        slices=tuple(data.get("slices", ())),
    )


@cache
def load_catalog() -> list[CatalogEntry]:
    """The stored catalog, read once; every call returns the same list."""
    with open(os.path.join(os.path.dirname(__file__), "data", "witnesses.json"), encoding="utf-8") as f:
        raw = json.load(f)
    return [
        CatalogEntry(
            salamon=row["salamon"],
            admits=tuple(bool(x) for x in row["admits"]),
            flat_class=row["flat_class"],
            witnesses=tuple(_witness_from_json(w) for w in row.get("witnesses", [])),
            obstruction=row.get("obstruction"),
            nonflat_argument=row.get("nonflat_argument"),
        )
        for row in raw["entries"]
    ]


def table_rows() -> list[CatalogEntry]:
    return [e for e in load_catalog() if e.flat_class != "NoCPS"]


def excluded_entries() -> list[CatalogEntry]:
    return [e for e in load_catalog() if e.flat_class == "NoCPS"]


class Checks(list):
    """The named checks `(name, ok, detail)` of one verdict, in the order they ran."""

    def __call__(self, name: str, ok, detail: str = "") -> bool:
        """Record one check; returns whether it passed."""
        self.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self)

    def to_json(self, key: str) -> list[dict]:
        """One object per check, its name under `key` ("stage" or "check")."""
        return [{key: name, "ok": ok, "detail": detail} for name, ok, detail in self]


def witness_structure(w: Witness) -> tuple[LieAlgebra, CPS]:
    """Algebra plus the CPS the witness claims (rotation applied if any), built and validated at its point."""
    try:
        g, j, e = family_data(w.family, w.params, w.rotation)
    except Exception as exc:  # noqa: BLE001 - re-raised with the witness and stage
        raise ValueError(f"witness {w.name!r} fails build: {exc}") from exc
    try:
        return g, assemble_cps(g, j, e)
    except StructureError as exc:
        raise ValueError(f"witness {w.name!r} fails cps_valid: {','.join(exc.failures)}") from exc


def _proven(proofs: dict, key, prove):
    """What `prove()` returns, or the ValueError it raises, computed once per catalog pass and kept in `proofs`."""
    if key not in proofs:
        try:
            proofs[key] = prove()
        except ValueError as exc:
            proofs[key] = exc
    return proofs[key]


def _certificate(proofs: dict, family: str, rotation: Q | None = None) -> CPS | ValueError:
    """The family's CPS over its variables, E rotated if a rotation is given: `build_family` proves
    Jacobi, every CPS axiom and zero torsion as identities, so at every point of the family."""
    return _proven(proofs, (family, rotation), lambda: build_family(family, _family_variables(family), rotation)[1])


def _closed_form(proofs: dict, family: str) -> Poly | ValueError:
    """`prove_family_flatness` on the connection of the family's unrotated certificate."""
    cert = _certificate(proofs, family)
    if not isinstance(cert, CPS):
        return FamilyError(f"{family}: {cert}")
    return _proven(proofs, family, lambda: prove_family_flatness(family, cert.connection))


def _staged(head: dict, stages: Checks) -> dict:
    """A report whose verdict is its stages: `head`, "passed" and the stage list."""
    return {**head, "passed": stages.passed, "stages": stages.to_json("stage")}


def verify_witness(entry: CatalogEntry, w: Witness, parse, proofs: dict) -> dict:
    """Replays the witness certificate against the row, stage by stage; tuples are read with `parse`.
    Returns the witness's JSON report: its "name", "passed" and the stages.

    "build" (with the side condition) and "basis_change" run at the
    witness's point.  "cps_valid", "double_type" and "flatness" specialize
    what its family proves over its variables, once per pass in `proofs`
    (as in `slice_flatness_check`): the certificate of its family and
    rotation, whose eigenspaces of E (constant over the family) are typed
    in the algebra at the point, and the closed form of
    `prove_family_flatness` at the point, which vanishes exactly where the
    curvature does.  A rotated certificate shares that curvature only if
    its connection is the unrotated one (criterion 08 at c = 1); any other
    connection fails "flatness".
    """
    stage = Checks()
    try:
        g, _, _ = family_data(w.family, w.params)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        stage("build", False, str(exc))
        return _staged({"name": w.name}, stage)
    stage("build", True)
    cert = _certificate(proofs, w.family, w.rotation)
    valid = isinstance(cert, CPS)
    stage("cps_valid", valid, "" if valid else ",".join(getattr(cert, "failures", [str(cert)])))

    try:
        moved = change_basis(g, w.basis_change)
        ok = moved == parse(entry.salamon)
        stage("basis_change", ok, "" if ok else "structure constants differ after basis change")
    except Exception as exc:  # noqa: BLE001
        stage("basis_change", False, str(exc))

    if not valid:
        stage("double_type", False, "no CPS to inspect")
        stage("flatness", False, "no CPS to inspect")
        return _staged({"name": w.name}, stage)
    types = iso_type_3d(g, cert.plus), iso_type_3d(g, cert.minus)
    stage("double_type", types == w.double_type, f"found ({types[0].value},{types[1].value})")
    form = _closed_form(proofs, w.family)
    if isinstance(form, ValueError):
        stage("flatness", False, str(form))
    elif cert.connection.tensor != _certificate(proofs, w.family).connection.tensor:
        stage("flatness", False, "the rotated connection is not the family's")
    else:
        flat = form.subs(_family_point(w.family, w.params)).value() == 0
        stage("flatness", flat == w.flat, f"curvature {'vanishes' if flat else 'does not vanish'}")
    return _staged({"name": w.name}, stage)


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


def slice_flatness_check(w: Witness, expect_flat: bool, proofs: dict) -> tuple[bool, str]:
    """Restrict the family's certified flatness closed form to the witness's slices.

    expect_flat=True demands the form restrict to the zero polynomial on
    every recorded slice; False demands it restrict to a nonzero constant
    times a product of the slice's `nonzero` parameters, so it never
    vanishes there.  The witness's own parameters must lie on a slice.
    A witness with no slice fails.  `proofs` keeps the family certificates
    and closed forms of one catalog pass.
    """
    if not w.slices:
        return False, "no slice recorded"
    form = _closed_form(proofs, w.family)
    if isinstance(form, ValueError):
        return False, str(form)
    if not any(_on_slice(w.params, spec, form.names) for spec in w.slices):
        return False, "witness parameters lie on no recorded slice"
    for spec in w.slices:
        value = _restrict(form, spec)
        if not (value.is_zero() if expect_flat else _never_vanishes(value, spec.get("nonzero", ()))):
            return False, f"flatness value {value} on slice {spec}"
    return True, "slice consistent"


def verify_row(entry: CatalogEntry, proofs: dict) -> dict:
    """Check a row's cells and flat class; `proofs` as in `slice_flatness_check`.  Returns the row's
    JSON report, which passes iff its witness reports ("witnesses_verified") and its own checks do."""
    parse = cache(parse_salamon)  # algebras are immutable: the row's witnesses share one parse
    reports = [verify_witness(entry, w, parse, proofs) for w in entry.witnesses]
    check = Checks()
    pairs = list(zip(entry.witnesses, reports))
    for idx, flag in enumerate(entry.admits):
        col = COLUMN_LABELS[idx]
        matching = [(w, r) for w, r in pairs if frozenset(w.double_type) == COLUMN_TYPES[idx]]
        if flag:
            check(
                f"admits_{col}",
                any(r["passed"] for _, r in matching),
                "no verified witness of this double type" if not matching else "",
            )
        else:
            check(f"admits_{col}", not matching, "witness contradicts a 'no' cell" if matching else "")

    flats = [(w, r) for w, r in pairs if w.flat]
    nonflats = [(w, r) for w, r in pairs if not w.flat]
    if entry.flat_class == "FlatOnly":
        check("flat_class", bool(flats) and not nonflats)
    elif entry.flat_class == "NonFlatOnly":
        check("flat_class", bool(nonflats) and not flats)
        check("nonflat_argument", entry.nonflat_argument is not None)
    elif entry.flat_class == "Both":
        check(
            "flat_class",
            any(r["passed"] for _, r in flats) and any(r["passed"] for _, r in nonflats),
        )
    else:
        check("flat_class", False, f"unexpected class {entry.flat_class}")
    if entry.flat_class in ("FlatOnly", "NonFlatOnly"):
        for w in entry.witnesses:
            check(f"slice_{w.name}", *slice_flatness_check(w, entry.flat_class == "FlatOnly", proofs))
    verified = all(r["passed"] for r in reports)
    return {
        "salamon": entry.salamon,
        "admits": dict(zip(COLUMN_LABELS, entry.admits)),
        "flat_class": entry.flat_class,
        "obstruction": entry.obstruction,
        "witnesses_verified": verified,
        "passed": verified and check.passed,
        "witnesses": reports,
        "checks": check.to_json("check"),
    }


def verify_table(seed: int = 0) -> dict:
    """Verify all fifteen admitting rows and the three excluded algebras: the `verify-catalog` JSON."""
    proofs: dict = {}  # family certificates and closed forms, proven once per pass
    rows = [verify_row(entry, proofs) for entry in table_rows()]
    excluded = [nonexistence_report(entry.salamon, seed=seed) for entry in excluded_entries()]
    return {"passed": all(r["passed"] for r in rows + excluded), "rows": rows, "excluded": excluded}


def nonexistence_report(salamon: str, seed: int = 0) -> dict:
    """The nonexistence certificate of one of the three excluded algebras: the `nonexistence` JSON,
    with the algebra's "salamon", the obstruction "kind", "passed" and the stages.

    The certificate replayed is the one the catalog stores as the entry's
    obstruction; a kind with no certificate raises ValueError naming it."""
    normalized = "".join(salamon.split())
    entry = next((e for e in excluded_entries() if e.salamon == normalized), None)
    if entry is None:
        raise ValueError(f"{_shown(salamon)} is not one of the excluded algebras")
    g = parse_salamon(normalized)
    if entry.obstruction == "CenterTooSmall":
        # every CPS has a 2-dimensional J,E-invariant central ideal
        z = center(g)
        stage = Checks()
        stage("center_dimension", z.dim == 1, f"center has dimension {z.dim}")
        stage("obstruction_raised", z.dim < 2)
        return _staged({"salamon": normalized, "kind": "CenterTooSmall"}, stage)
    if entry.obstruction == "EncodedProof":
        return _encoded_proof_report(g, normalized, seed)
    raise ValueError(f"{normalized}: unknown obstruction kind {entry.obstruction!r}")


def _encoded_proof_report(g: LieAlgebra, salamon: str, seed: int) -> dict:
    stage = Checks()
    n = g.dim
    e = [basis_vec(n, i) for i in range(n)]

    # (a) e1, e2 in g+ would force two more generators into g+
    b1 = g.bracket(e[0], e[1])
    b2 = g.bracket(e[0], b1)
    span = Subspace.from_spanning([e[0], e[1], b1, b2], n)
    stage(
        "plus_side_dimension_overflow",
        span.dim == 4,
        f"e1, e2, [e1,e2], [e1,[e1,e2]] span dimension {span.dim} > 3",
    )

    # (b) generic commuting partner with y1 = y2 = 0 is forced central.  On
    # the y3..y6 columns of ad x, the y3, y4 columns have determinant
    # x1^2 + x2^2 in rows 5, 6; once that is nonzero, the kernel is
    # {y3 = y4 = 0} iff the y5 and y6 columns vanish
    rng = random.Random(seed)
    samples = 0
    failure = ""
    while samples < 200 and not failure:
        x = vec([Q(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)])
        norm = x[0] ** 2 + x[1] ** 2
        if norm == 0:
            continue
        samples += 1
        adx = g.ad_vector(x)
        a = adx.num
        det = Q(a[4][2] * a[5][3] - a[4][3] * a[5][2], adx.den**2)
        if det != norm:
            failure = f"2x2 block determinant {det} != x1^2+x2^2 at sample {samples}"
        elif any(row[4] or row[5] for row in a):
            failure = f"kernel not {{y3=y4=0}} at sample {samples}"
    stage(
        "generic_pair_forces_center",
        not failure,
        failure or f"200 seeded samples (seed={seed}) all force y3=y4=0",
    )

    # (c) the center would sit inside g-, contradicting J-invariance of u
    stage(
        "central_ideal_contradiction",
        center(g).dim == 2,
        "center = the unique 2-dim central subspace; stages (a)+(b) push it into "
        "g-, but a J-invariant u inside g- satisfies u = J u within J g- = g+, "
        "forcing u = 0 and contradicting dim u = 2",
    )
    return _staged({"salamon": salamon, "kind": "EncodedProof"}, stage)

