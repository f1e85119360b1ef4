"""Command-line interface.

Subcommands that read an arrangement take FILE, where ``-`` means stdin.
Every subcommand honors ``--json`` (stable machine-readable envelope with
a ``schema`` version) and ``--quiet`` (suppress the human report).  Exit
codes: 0 success, 1 usage error, 2 input error, 3 negative result such as
an arrangement that is not fiber-type.  Under ``--json`` a usage or input
error also prints the envelope, with the message as ``result.error``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .arrangement import Arrangement, braid_arrangement, intersection_poset
from .errors import ArrcompError
from .fileformat import (
    load_arrangement_file,
    parse_arrangement,
    serialize_arrangement,
)
from .lattice import betti_numbers, char_poly, fiber_type, mobius
from .surgery import (
    SurgeryTable,
    spf_pure_braid,
    surgery_fiber_type,
    surgery_pure_braid,
)
from .topology import gm_wedge, suspension_wedge

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NEGATIVE = 3

SCHEMA_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _read_arrangement(source: str) -> Arrangement:
    try:
        if source == "-":
            return parse_arrangement(sys.stdin.read())
        return load_arrangement_file(source).arrangement
    except OSError as exc:
        raise ArrcompError(f"cannot read {source}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ArrcompError(f"cannot read {source}: {exc}") from exc


class _Report:
    """Collects one subcommand's output and renders it once."""

    def __init__(self, args, command: str, input_value):
        self.args = args
        self.command = command
        self.input_value = input_value
        self.result: dict = {}
        self.lines: list[str] = []
        self.warnings: list[str] = []

    def emit(self, exit_code: int = EXIT_OK) -> int:
        if self.args.json:
            envelope = {
                "schema": SCHEMA_VERSION,
                "command": self.command,
                "input": self.input_value,
                "result": self.result,
                "warnings": self.warnings,
            }
            print(json.dumps(envelope, indent=2))
            return exit_code
        for warning in self.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if not self.args.quiet:
            for line in self.lines:
                print(line)
        return exit_code


def _poly_string(coeffs) -> str:
    """Render ascending coefficients as a polynomial in t, leading term
    first."""
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        magnitude = abs(c)
        if power == 0:
            body = str(magnitude)
        else:
            t = "t" if power == 1 else f"t^{power}"
            body = t if magnitude == 1 else f"{magnitude}{t}"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def _group_entries(table: SurgeryTable) -> list[dict]:
    entries = []
    for i, group in table.rows():
        entries.append(
            {
                "residue": i,
                "group": str(group),
                "free_rank": group.free_rank,
                "torsion": list(group.torsion),
            }
        )
    return entries


def _table_lines(table: SurgeryTable) -> list[str]:
    return [f"L_i, i = {i} mod 4: {group}" for i, group in table.rows()]


def _cmd_lattice(args) -> int:
    arrangement = _read_arrangement(args.file)
    poset = intersection_poset(arrangement)
    table = mobius(poset)
    report = _Report(args, "lattice", args.file)
    flats = []
    for flat in poset.flats:
        flats.append(
            {
                "id": flat.id,
                "codim": flat.codim,
                "dim": flat.dim(arrangement.ambient_dim),
                "mobius": table[flat.id],
                "hyperplanes": sorted(flat.generators),
            }
        )
    report.result = {
        "ambient_dim": arrangement.ambient_dim,
        "hyperplane_count": arrangement.size,
        "flat_count": len(poset),
        "rank": poset.rank,
        "flats": flats,
    }
    report.lines.append(
        f"arrangement in C^{arrangement.ambient_dim} "
        f"with {arrangement.size} hyperplanes"
    )
    report.lines.append(f"intersection poset: {len(poset)} flats, rank {poset.rank}")
    for codim in sorted(poset.rank_layers):
        report.lines.append(f"codim {codim}:")
        for fid in poset.rank_layers[codim]:
            flat = poset.flats[fid]
            names = ", ".join(arrangement.label(i) for i in sorted(flat.generators))
            report.lines.append(
                f"  flat {fid}  mu {table[fid]}  hyperplanes: {names or '(none)'}"
            )
    return report.emit()


def _cmd_charpoly(args) -> int:
    arrangement = _read_arrangement(args.file)
    coeffs = char_poly(arrangement)
    report = _Report(args, "charpoly", args.file)
    report.result = {"coefficients": list(coeffs), "pretty": _poly_string(coeffs)}
    report.lines.append(_poly_string(coeffs))
    return report.emit()


def _cmd_betti(args) -> int:
    arrangement = _read_arrangement(args.file)
    betti = betti_numbers(arrangement)
    report = _Report(args, "betti", args.file)
    report.result = {"betti": list(betti)}
    report.lines.append("betti: " + " ".join(str(b) for b in betti))
    return report.emit()


def _cmd_fibertype(args) -> int:
    arrangement = _read_arrangement(args.file)
    tower = fiber_type(arrangement)
    report = _Report(args, "fibertype", args.file)
    if tower is None:
        report.result = {"fiber_type": False}
        report.lines.append("not fiber-type")
        return report.emit(EXIT_NEGATIVE)
    report.result = {
        "fiber_type": True,
        "chain": list(tower.chain),
        "fiber_ranks": list(tower.fiber_ranks),
        "affine": tower.affine,
    }
    report.lines.append("fiber-type: yes")
    report.lines.append("chain flats: " + " ".join(str(f) for f in tower.chain))
    report.lines.append("fiber ranks: " + " ".join(str(e) for e in tower.fiber_ranks))
    if tower.affine:
        report.warnings.append(
            "arrangement is not central; the modular-chain witness is reported "
            "with that caveat"
        )
    return report.emit()


def _cmd_suspension(args) -> int:
    arrangement = _read_arrangement(args.file)
    plain = suspension_wedge(arrangement)
    report = _Report(args, "suspension", args.file)
    report.result = {"sphere_dims": list(plain.sphere_dims)}
    report.lines.append(
        f"suspension: wedge of {len(plain.sphere_dims)} spheres: "
        f"{plain.summary()}"
    )
    if args.full_poset:
        full = gm_wedge(arrangement)
        report.result["full_poset"] = {"sphere_dims": list(full.sphere_dims)}
        report.lines.append(f"full-poset model: {full.summary()}")
        report.warnings.extend(full.warnings)
    return report.emit()


def _cmd_lgroups(args) -> int:
    arrangement = _read_arrangement(args.file)
    report = _Report(args, "lgroups", args.file)
    forced: Optional[int] = args.force_n
    if forced is None:
        tower = fiber_type(arrangement)
        if tower is None:
            print(
                "error: not fiber-type; rerun with --force-N <count> to "
                "evaluate the table anyway",
                file=sys.stderr,
            )
            return EXIT_NEGATIVE
        if tower.affine:
            report.warnings.append(
                "arrangement is not central; fiber-type witness carries the "
                "affine caveat"
            )
        count = arrangement.size
    else:
        count = forced
        report.warnings.append(
            "fiber-type not verified: table computed for the supplied "
            "hyperplane count"
        )
    table = surgery_fiber_type(count)
    report.result = {
        "hyperplane_count": count,
        "provenance": table.provenance,
        "table": _group_entries(table),
    }
    report.lines.append(f"surgery groups for N = {count} hyperplanes")
    report.lines.extend(_table_lines(table))
    return report.emit()


def _cmd_braid(args) -> int:
    arrangement = braid_arrangement(args.n)
    text = serialize_arrangement(arrangement)
    report = _Report(args, "braid", args.n)
    report.result = {
        "n": args.n,
        "ambient_dim": arrangement.ambient_dim,
        "hyperplane_count": arrangement.size,
        "file": text,
    }
    report.lines.extend(text.splitlines())
    return report.emit()


def _cmd_surgery_pb(args) -> int:
    table = surgery_pure_braid(args.n)
    count = args.n * (args.n + 1) // 2
    report = _Report(args, "surgery-pb", args.n)
    report.result = {
        "n": args.n,
        "hyperplane_count": count,
        "provenance": table.provenance,
        "table": _group_entries(table),
    }
    report.lines.append(
        f"surgery groups of the pure braid group, n = {args.n} "
        f"(N = {count} hyperplanes)"
    )
    report.lines.extend(_table_lines(table))
    return report.emit()


def _cmd_spf_pb(args) -> int:
    certificate = spf_pure_braid(args.n)
    report = _Report(args, "spf-pb", args.n)
    report.result = {
        "n": args.n,
        "quotient_ranks": list(certificate.quotient_ranks),
        "rank_bound": certificate.rank_bound,
        "normality_asserted": certificate.normality_asserted,
    }
    report.lines.append(
        f"strongly poly-free certificate for the pure braid group, n = {args.n}"
    )
    report.lines.append(
        "quotient ranks: " + " ".join(str(r) for r in certificate.quotient_ranks)
    )
    report.lines.append(f"filtration length: {certificate.rank_bound}")
    report.lines.append("normality asserted (conjugation data recorded, not verified)")
    return report.emit()


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first ``run()`` and reused; each
    ``parse_args`` call fills a fresh namespace."""
    common = _Parser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="machine-readable output",
    )
    common.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress the human report",
    )
    parser = _Parser(
        prog="arrcomp",
        description="exact invariants of hyperplane arrangement complements",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def file_command(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("file", metavar="FILE", help="arrangement file, - for stdin")
        p.set_defaults(handler=handler)
        return p

    def count_command(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("n", metavar="N", type=int)
        p.set_defaults(handler=handler)
        return p

    file_command("lattice", _cmd_lattice, "intersection poset with Mobius values")
    file_command("charpoly", _cmd_charpoly, "characteristic polynomial")
    file_command("betti", _cmd_betti, "Betti numbers of the complement")
    file_command("fibertype", _cmd_fibertype, "fibration tower witness, if any")
    suspension = file_command(
        "suspension", _cmd_suspension, "wedge model of the suspended complement"
    )
    suspension.add_argument(
        "--full-poset", action="store_true",
        help="also evaluate the full-poset model",
    )
    lgroups = file_command(
        "lgroups", _cmd_lgroups, "surgery group table of the complement's group"
    )
    lgroups.add_argument(
        "--force-N", dest="force_n", metavar="N", type=int, default=None,
        help="evaluate for this hyperplane count without a fiber-type check",
    )
    count_command("braid", _cmd_braid, "emit the braid arrangement file")
    count_command("surgery-pb", _cmd_surgery_pb, "pure braid surgery groups")
    count_command("spf-pb", _cmd_spf_pb, "strongly poly-free certificate")
    parser.commands = frozenset(sub.choices)
    return parser


def _usage_error(parser: _Parser, argv, message: str) -> int:
    """Report a usage error; under ``--json`` also print the envelope, with
    the subcommand when the first positional token names one."""
    print(f"usage error: {message}", file=sys.stderr)
    if "--json" not in argv:
        return EXIT_USAGE
    first = next((token for token in argv if not token.startswith("-")), None)
    command = first if first in parser.commands else None
    report = _Report(argparse.Namespace(json=True), command, None)
    report.result = {"error": message}
    return report.emit(EXIT_USAGE)


def run(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _usage_error(parser, argv, str(exc))
    except SystemExit as exc:
        # argparse exits directly for --help; keep run() returning an int
        return int(exc.code or 0)
    # flags declared with SUPPRESS so either position wins; absent means off
    args.json = getattr(args, "json", False)
    args.quiet = getattr(args, "quiet", False)
    if getattr(args, "handler", None) is None:
        return _usage_error(parser, argv, "a subcommand is required (try --help)")
    try:
        return args.handler(args)
    except ArrcompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if not args.json:
            return EXIT_INPUT
        input_value = args.file if hasattr(args, "file") else args.n
        report = _Report(args, args.command, input_value)
        report.result = {"error": str(exc)}
        return report.emit(EXIT_INPUT)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
