"""Batch command-line front end; every command emits deterministic JSON.

Exit status is 0 iff all checks performed by the command pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable

from .catalog import nonexistence_report, verify_table
from .connection import (
    connection_is_complete_certificate,
    cp_connection,
    curvature,
    quadratic_geodesic_certificate,
)
from .hypercomplex import lift_cps, obata_connection
from .lie import LieAlgebra, algebra_from_json, algebra_to_json
from .salamon import SalamonError, emit_salamon, parse_salamon
from .structures import CPS, StructureError, assemble_cps, double_type, endo_from_json


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice is an error, not overwritten."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} appears twice in one JSON object")
        out[key] = value
    return out


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def _load_algebra_spec(text: str) -> LieAlgebra:
    """Inline tuple string, or a path to a JSON algebra file."""
    if text.strip().startswith("("):
        return parse_salamon(text)
    return _algebra_from_data(_read_json(text))


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
    data = _read_json(args.cps)
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


def _emit(args, payload, ok: bool) -> int:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def _parse(salamon: str, seed: int):
    g = parse_salamon(salamon)
    payload = algebra_to_json(g)
    payload["salamon"] = emit_salamon(g)
    return payload, True


def _check_structure(cps: CPS, seed: int):
    types = double_type(cps)
    payload = {
        "valid": True,
        "failures": [],
        "double_type": [types[0].value, types[1].value],
        "plus": cps.plus.to_json(),
        "minus": cps.minus.to_json(),
    }
    return payload, True


def _connection_report(cps: CPS, seed: int):
    # cp_connection raises unless the connection is torsion-free with J and E parallel
    rep = curvature(cp_connection(cps))
    cert = connection_is_complete_certificate(rep)
    payload = {
        "torsion_free": True,
        "parallel": {"J": True, "E": True},
        "flat": rep.is_flat,
        "ricci_flat": rep.is_ricci_flat,
        "traceless": rep.traceless,
        "curvature_nonzero_entries": rep.nonzero_entries(),
        "completeness": cert.to_json(),
    }
    return payload, rep.is_ricci_flat and rep.traceless and cert.verdict


def _verify_catalog(_, seed: int):
    report = verify_table(seed=seed)
    return report.to_json(), report.passed


def _hypercomplex(cps: CPS, seed: int):
    ghat, h = lift_cps(cps)
    base = cp_connection(cps)
    ob = obata_connection(h, base)
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
    return payload, ob_rep.is_ricci_flat and (ob_rep.is_flat == base_rep.is_flat)


def _geodesic(cps: CPS, seed: int):
    cert = quadratic_geodesic_certificate(cp_connection(cps), seed=seed)
    return cert.to_json(), cert.verdict


def _nonexistence(salamon: str, seed: int):
    report = nonexistence_report(salamon, seed=seed)
    return report.to_json(), report.passed


@dataclass(frozen=True)
class Command:
    """One subcommand: `run(subject, seed)` returns (payload, ok).

    The subject is the positional tuple string ("salamon"), the validated
    CPS named by --cps and --algebra ("cps"), or None.  A CPS that fails
    validation is reported as `invalid` plus its "failures".
    """

    help: str
    run: Callable
    subject: str | None = None
    invalid: dict | None = None


INVALID_CPS = {"error": "invalid CPS"}

COMMANDS = {
    "parse": Command("parse a tuple string and print the bracket table", _parse, "salamon"),
    "check-structure": Command("validate a CPS", _check_structure, "cps", {"valid": False}),
    "connection-report": Command(
        "torsion, parallelism, curvature, completeness", _connection_report, "cps", INVALID_CPS
    ),
    "verify-catalog": Command("verify the full classification table", _verify_catalog),
    "hypercomplex": Command("lift a CPS to the doubled algebra", _hypercomplex, "cps", INVALID_CPS),
    "geodesic": Command("numeric quadratic-geodesic certificate", _geodesic, "cps", INVALID_CPS),
    "nonexistence": Command("obstruction report for an excluded algebra", _nonexistence, "salamon"),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises on a usage error, so `main` reports it as JSON; subparsers inherit this."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cpslie",
        description="verify complex product structures on nilpotent Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if cmd.subject == "salamon":
            p.add_argument("salamon")
        elif cmd.subject == "cps":
            p.add_argument("--algebra", help="tuple string or JSON algebra file")
            p.add_argument("--cps", required=True, help="JSON file with J and E matrices")
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--seed", type=int, default=0, help=(
            "seed of the sampled checks; only verify-catalog, nonexistence and geodesic"
            " read it, the other commands accept it and ignore it"
        ))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cmd = COMMANDS[args.command]
        if cmd.subject == "cps":
            try:
                subject = _load_cps(args)
            except StructureError as exc:
                return _emit(args, {**cmd.invalid, "failures": exc.failures}, False)
        else:
            subject = getattr(args, cmd.subject) if cmd.subject else None
        return _emit(args, *cmd.run(subject, args.seed))
    except (SalamonError, ValueError, OSError) as exc:
        error = {"error": str(exc)}
        if isinstance(exc, SalamonError):
            error["position"] = exc.position
        sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
