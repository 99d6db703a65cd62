"""Batch command-line front end; every command emits deterministic JSON.

Exit status is 0 iff all checks performed by the command pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

from .catalog import nonexistence_report, verify_table
from .connection import (
    connection_is_complete_certificate,
    curvature,
    exact_polynomial_geodesic_certificate,
)
from .hypercomplex import lift_cps
from .lie import LieAlgebra, algebra_from_json, algebra_to_json
from .linalg import _shown
from .salamon import SalamonError, emit_salamon, parse_salamon
from .structures import CPS, StructureError, assemble_cps, double_type, endo_from_json


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice is an error, not overwritten."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {_shown(key)} appears twice in one JSON object")
        out[key] = value
    return out


def _json_integer(literal: str) -> int:
    try:
        return int(literal)
    except ValueError:  # over sys.get_int_max_str_digits()
        raise ValueError(f"JSON integer of {len(literal)} characters has too many digits") from None


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys, parse_int=_json_integer)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_algebra_spec(text: str) -> LieAlgebra:
    """Inline tuple string, or a path to a JSON algebra file."""
    if text.strip().startswith("("):
        return parse_salamon(text)
    return _algebra_from_data(_read_json(text))


def _algebra_from_data(data) -> LieAlgebra:
    if "salamon" in data:
        if not isinstance(text := data["salamon"], str):
            raise ValueError("'salamon' must be a tuple string such as \"(0,0,0,0,0,12)\"")
        return parse_salamon(text)
    return algebra_from_json(data)


def _load_cps(args) -> CPS:
    """The CPS named by --cps and --algebra, validated once.

    Malformed input (either file) raises ValueError; well-formed input
    whose J and E fail an axiom raises StructureError with the full
    failure list.
    """
    data = _read_json(args.cps)
    if not isinstance(data, dict):
        raise ValueError("the CPS file must hold a JSON object with entries 'J' and 'E'")
    entry = "algebra"  # the entry being read, which a TypeError names
    try:
        if args.algebra is not None:
            algebra = _load_algebra_spec(args.algebra)
        elif "algebra" in data:
            algebra = _algebra_from_data(data["algebra"])
        else:
            raise ValueError("the CPS file has no algebra and none was given via --algebra")
        entry = "J"
        j = endo_from_json(data["J"], "J")
        entry = "E"
        e = endo_from_json(data["E"], "E")
    except KeyError as exc:
        raise ValueError(f"missing entry {exc.args[0]!r} in the input") from None
    except TypeError as exc:
        raise ValueError(f"malformed input in {entry!r}: {exc}") from None
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
    # iso_type_3d classifies 3-dimensional subalgebras only
    types = [t.value for t in double_type(cps)] if cps.plus.dim == cps.minus.dim == 3 else None
    payload = {
        "valid": True,
        "failures": [],
        "double_type": types,
        "plus": cps.plus.to_json(),
        "minus": cps.minus.to_json(),
    }
    return payload, True


def _connection_report(cps: CPS, seed: int):
    # assemble_cps certified the connection torsion-free, which with the construction proves J and E parallel
    rep = curvature(cps.connection)
    cert = connection_is_complete_certificate(cps, rep.is_flat)
    payload = {
        "torsion_free": True,
        "parallel": {"J": True, "E": True},
        "flat": rep.is_flat,
        "ricci_flat": rep.is_ricci_flat,
        "traceless": rep.traceless,
        # R(e_x, e_y) e_z has component `value` along e_w, for x < y
        "curvature_nonzero_entries": [
            {"x": i + 1, "y": j + 1, "z": k + 1, "w": l + 1, "value": str(m.entry(l, k))}
            for (i, j), m in sorted(rep.r.items())
            for k in range(m.cols)
            for l in range(m.rows)
            if m.num[l][k]
        ],
        "completeness": cert,
    }
    return payload, rep.is_ricci_flat and rep.traceless and cert["verdict"]


def _verify_catalog(_, seed: int):
    report = verify_table(seed=seed)
    return report, report["passed"]


def _hypercomplex(cps: CPS, seed: int):
    # assemble_cps certified the CPS, which proves the lift quaternionic and its Obata connection torsion-free;
    # the Obata curvature is the cp curvature doubled, so the flags are the cp connection's (see lift_cps)
    h = lift_cps(cps)
    rep = curvature(cps.connection)
    payload = {
        "lifted_algebra": algebra_to_json(h.algebra),
        "J1": h.j1.to_json(),
        "J2": h.j2.to_json(),
        "J3": h.j3.to_json(),
        "base_flat": rep.is_flat,
        "obata_flat": rep.is_flat,
        "obata_ricci_flat": rep.is_ricci_flat,
    }
    return payload, rep.is_ricci_flat


def _geodesic(cps: CPS, seed: int):
    cert = exact_polynomial_geodesic_certificate(cps.connection)
    return cert, cert["verdict"]


def _nonexistence(salamon: str, seed: int):
    report = nonexistence_report(salamon, seed=seed)
    return report, report["passed"]


class Command(NamedTuple):
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
    "geodesic": Command("least polynomial degree of the geodesics, proven exactly", _geodesic, "cps", INVALID_CPS),
    "nonexistence": Command("obstruction report for an excluded algebra", _nonexistence, "salamon"),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises on a usage error, so `main` reports it as JSON; subparsers inherit this."""

    def error(self, message):
        raise ValueError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of `command` only, if it names one, else with every subparser."""
    parser = _ArgumentParser(
        prog="cpslie",
        description="verify complex product structures on nilpotent Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in ({command: COMMANDS[command]} if command in COMMANDS else COMMANDS).items():
        p = sub.add_parser(name, help=cmd.help)
        if cmd.subject == "salamon":
            p.add_argument("salamon")
        elif cmd.subject == "cps":
            p.add_argument("--algebra", help="tuple string or JSON algebra file")
            p.add_argument("--cps", required=True, help="JSON file with J and E matrices")
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--seed", type=int, default=0, help=(
            "seed of the sampled checks; only verify-catalog and nonexistence read it,"
            " the other commands accept it and ignore it"
        ))
    return parser


def _bounded(message: str, argv) -> str:
    """`message` with each long part of `argv` it quotes shortened through `_shown`, longest first: argparse
    quotes a token, or of an option token the value after "=" or what follows its stacked -h flags."""
    parts = [*argv, *(x for t in argv if t.startswith("-") for x in (t.partition("=")[2], t[1:].lstrip("h")))]
    shortened = ""  # a shortened part keeps 63 of its characters, in which no shorter part is shortened again
    for p in sorted(dict.fromkeys(p for p in parts if _shown(p) != repr(p)), key=len, reverse=True):
        if p not in shortened:
            message, shortened = message.replace(repr(p), _shown(p)).replace(p, _shown(p)), shortened + _shown(p)
    return message


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a known command needs only its own subparser; anything else gets the full usage
        args = build_parser(argv[0] if argv else None).parse_args(argv)
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
        error = {"error": _bounded(str(exc), argv)}
        if isinstance(exc, SalamonError):
            error["position"] = exc.position
        sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
