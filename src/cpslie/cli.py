"""Batch command-line front end; every command emits deterministic JSON.

Exit status is 0 iff all checks performed by the command pass.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import nonexistence_report, verify_table
from .connection import (
    connection_is_complete_certificate,
    cp_connection,
    curvature,
    parallel_defect,
    quadratic_geodesic_certificate,
    torsion_defect,
)
from .hypercomplex import lift_cps, obata_connection
from .lie import LieAlgebra, algebra_from_json, algebra_to_json
from .salamon import SalamonError, emit_salamon, parse_salamon
from .structures import CPS, StructureError, assemble_cps, double_type, endo_from_json


def _load_algebra_spec(text: str) -> LieAlgebra:
    """Inline tuple string, or a path to a JSON algebra file."""
    if text.strip().startswith("("):
        return parse_salamon(text)
    with open(text) as fh:
        data = json.load(fh)
    return _algebra_from_data(data)


def _algebra_from_data(data) -> LieAlgebra:
    if "salamon" in data:
        return parse_salamon(data["salamon"])
    return algebra_from_json(data)


def _load_cps(args) -> CPS:
    """The CPS named by --cps and --algebra, validated once.

    Malformed input (either file) raises ValueError; well-formed input
    whose J and E fail an axiom raises StructureError with the full
    failure list.
    """
    with open(args.cps) as fh:
        data = json.load(fh)
    try:
        if args.algebra:
            algebra = _load_algebra_spec(args.algebra)
        elif "algebra" in data:
            algebra = _algebra_from_data(data["algebra"])
        else:
            raise ValueError("the CPS file has no algebra and none was given via --algebra")
        j = endo_from_json(data["J"])
        e = endo_from_json(data["E"])
    except KeyError as exc:
        raise ValueError(f"missing entry {exc.args[0]!r} in the input") from None
    except TypeError as exc:
        raise ValueError(f"malformed input: {exc}") from None
    return assemble_cps(algebra, j, e)


def _invalid(args, exc: StructureError) -> int:
    return _emit(args, {"error": "invalid CPS", "failures": exc.failures}, False)


def _emit(args, payload, ok: bool) -> int:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def _cmd_parse(args) -> int:
    try:
        g = parse_salamon(args.salamon)
    except SalamonError as exc:
        return _emit(args, {"error": str(exc), "position": exc.position}, False)
    payload = algebra_to_json(g)
    payload["salamon"] = emit_salamon(g)
    return _emit(args, payload, True)


def _cmd_check_structure(args) -> int:
    try:
        cps = _load_cps(args)
    except StructureError as exc:
        return _emit(args, {"valid": False, "failures": exc.failures}, False)
    types = double_type(cps)
    payload = {
        "valid": True,
        "failures": [],
        "double_type": [types[0].value, types[1].value],
        "plus": cps.plus.to_json(),
        "minus": cps.minus.to_json(),
    }
    return _emit(args, payload, True)


def _cmd_connection_report(args) -> int:
    try:
        cps = _load_cps(args)
    except StructureError as exc:
        return _invalid(args, exc)
    conn = cp_connection(cps)
    rep = curvature(conn)
    cert = connection_is_complete_certificate(conn, seed=args.seed)
    payload = {
        "torsion_free": not torsion_defect(conn),
        "parallel": {
            "J": not parallel_defect(conn, cps.j),
            "E": not parallel_defect(conn, cps.e),
        },
        "flat": rep.is_flat,
        "ricci_flat": rep.is_ricci_flat,
        "traceless": rep.traceless,
        "curvature_nonzero_entries": rep.nonzero_entries(),
        "completeness": cert.to_json(),
    }
    ok = (
        payload["torsion_free"]
        and payload["parallel"]["J"]
        and payload["parallel"]["E"]
        and payload["ricci_flat"]
        and payload["traceless"]
        and cert.verdict
    )
    return _emit(args, payload, ok)


def _cmd_verify_catalog(args) -> int:
    report = verify_table(seed=args.seed)
    return _emit(args, report.to_json(), report.passed)


def _cmd_hypercomplex(args) -> int:
    try:
        cps = _load_cps(args)
    except StructureError as exc:
        return _invalid(args, exc)
    ghat, h = lift_cps(cps)
    base = cp_connection(cps)
    ob = obata_connection(ghat, h, base)
    base_rep = curvature(base)
    ob_rep = curvature(ob)
    payload = {
        "lifted_algebra": algebra_to_json(ghat),
        "J1": h.j1.to_json(),
        "J2": h.j2.to_json(),
        "J3": h.j3.to_json(),
        "base_flat": base_rep.is_flat,
        "obata_flat": ob_rep.is_flat,
        "obata_ricci_flat": ob_rep.is_ricci_flat,
    }
    ok = ob_rep.is_ricci_flat and (ob_rep.is_flat == base_rep.is_flat)
    return _emit(args, payload, ok)


def _cmd_geodesic(args) -> int:
    try:
        cps = _load_cps(args)
    except StructureError as exc:
        return _invalid(args, exc)
    conn = cp_connection(cps)
    cert = quadratic_geodesic_certificate(conn, seed=args.seed)
    return _emit(args, cert.to_json(), cert.verdict)


def _cmd_nonexistence(args) -> int:
    try:
        report = nonexistence_report(args.salamon, seed=args.seed)
    except ValueError as exc:
        return _emit(args, {"error": str(exc)}, False)
    return _emit(args, report.to_json(), report.passed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpslie",
        description="verify complex product structures on nilpotent Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cps_required=True):
        p.add_argument("--algebra", help="tuple string or JSON algebra file")
        p.add_argument("--cps", required=cps_required, help="JSON file with J and E matrices")
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", default=True, help=argparse.SUPPRESS)

    p = sub.add_parser("parse", help="parse a tuple string and print the bracket table")
    p.add_argument("salamon")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", default=True, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("check-structure", help="validate a CPS")
    common(p)
    p.set_defaults(func=_cmd_check_structure)

    p = sub.add_parser("connection-report", help="torsion, parallelism, curvature, completeness")
    common(p)
    p.set_defaults(func=_cmd_connection_report)

    p = sub.add_parser("verify-catalog", help="verify the full classification table")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", default=True, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify_catalog)

    p = sub.add_parser("hypercomplex", help="lift a CPS to the doubled algebra")
    common(p)
    p.set_defaults(func=_cmd_hypercomplex)

    p = sub.add_parser("geodesic", help="numeric quadratic-geodesic certificate")
    common(p)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("nonexistence", help="obstruction report for an excluded algebra")
    p.add_argument("salamon")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", default=True, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_nonexistence)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SalamonError, ValueError, OSError) as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
