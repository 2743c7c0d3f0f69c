"""Command-line orchestration.

Subcommands: gen | table | coeffs | solve-bvp | verify | qd.  All inputs and
outputs are the JSON documents of jsondoc; values are exact rational strings.

Exit codes: 0 ok, 1 when ``verify`` or ``qd`` finds a nonzero residual, 2
on a usage error.  A library error exits with the ``exit_code`` of its
class, and stderr names it by the class's ``label``: see ``errors``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Any

from . import classical, jsondoc
from .bvp import cross_validate, field_from_moments, sweep_solve
from .errors import HplaxError, ParseError, TruncationError
from .hptable import HPTable
from .measures import (MomentSystem, jfraction_to_moments, make_angelesco,
                       make_nikishin)

EXIT_OK = 0


def _read_doc(path: str) -> Any:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:     # ValueError: bad JSON or bad UTF-8
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write_doc(doc: Any, path: str | None) -> None:
    """doc as indented JSON and a newline, into the file at path, or stdout
    for None or '-'.  The encoder's chunks go straight to the destination,
    so the whole text is never held."""
    with (contextlib.nullcontext(sys.stdout) if path is None or path == "-"
          else open(path, "w", encoding="utf-8")) as fh:
        fh.writelines(json.JSONEncoder(indent=2).iterencode(doc))
        fh.write("\n")


def nonnegative(text: str) -> int:
    """argparse type of each --window value and of --order."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _default_order(n: int, m: int) -> int:
    # covers the deepest remainder and continued-fraction checks with margin
    return 2 * (n + m) + 4


# -- subcommands ---------------------------------------------------------------


def _cmd_gen(args) -> int:
    doc = _read_doc(args.infile)
    if args.order is not None:
        count = args.order
    elif args.window is not None:
        count = _default_order(*args.window)
    else:
        raise ParseError("gen needs --order K or --window N M")
    if args.system == "angelesco":
        system = make_angelesco(jsondoc.measure_from_doc(jsondoc.need(doc, "mu1")),
                                jsondoc.measure_from_doc(jsondoc.need(doc, "mu2")),
                                count)
    elif args.system == "nikishin":
        system = make_nikishin(jsondoc.measure_from_doc(jsondoc.need(doc, "sigma1")),
                               jsondoc.measure_from_doc(jsondoc.need(doc, "sigma2")),
                               count)
    elif args.system == "moments":
        s1 = jsondoc.rat_list(jsondoc.need(doc, "s1"))
        s2 = jsondoc.rat_list(jsondoc.need(doc, "s2"))
        label = jsondoc.moment_label(doc, s1, s2, "moments")
        if min(len(s1), len(s2)) < count:
            raise TruncationError(
                f"gen needs {count} moments of each sequence, the input has "
                f"{len(s1)} and {len(s2)}")
        system = MomentSystem(tuple(s1[:count]), tuple(s2[:count]), label=label)
    elif args.system == "jfraction":
        j1 = jsondoc.jfraction_from_doc(jsondoc.need(doc, "f1"))
        j2 = jsondoc.jfraction_from_doc(jsondoc.need(doc, "f2"))
        system = MomentSystem(tuple(jfraction_to_moments(j1, count)),
                              tuple(jfraction_to_moments(j2, count)),
                              label="jfraction")
    else:  # unreachable through argparse choices
        raise ParseError(f"unknown system {args.system!r}")
    _write_doc(jsondoc.moment_system_to_doc(system), args.outfile)
    return EXIT_OK


def _cmd_table(args) -> int:
    system = jsondoc.moment_system_from_doc(_read_doc(args.infile))
    n_max, m_max = args.window
    table = HPTable(system, n_max, m_max)
    _write_doc(jsondoc.table_to_doc(table, (n_max, m_max)), args.outfile)
    return EXIT_OK


def _cmd_coeffs(args) -> int:
    system = jsondoc.moment_system_from_doc(_read_doc(args.infile))
    n_max, m_max = args.window
    field = field_from_moments(system, n_max, m_max)
    _write_doc(jsondoc.field_to_doc(field), args.outfile)
    return EXIT_OK


def _cmd_solve_bvp(args) -> int:
    boundary = jsondoc.boundary_from_doc(_read_doc(args.infile))
    n_max, m_max = args.window
    report = sweep_solve(boundary, n_max, m_max)
    _write_doc(jsondoc.sweep_report_to_doc(report, (n_max, m_max)), args.outfile)
    report.field_or_raise()
    return EXIT_OK


def _cmd_verify(args) -> int:
    system = jsondoc.moment_system_from_doc(_read_doc(args.infile))
    n_max, m_max = args.window
    result = cross_validate(system, n_max, m_max)
    doc = {
        "kind": "verify_report",
        "convention": jsondoc.CONVENTION,
        "window": [n_max, m_max],
        # cross_validate raises unless the grids are equal, and the sweep's
        # field meets the consistency identities by construction
        "grids_equal": True,
        "zcc_max_residual_degree": "zero" if result.zcc_all_zero else "nonzero",
        "consistency_residuals": "0",
        "orthogonality_residuals": jsondoc.rat_str(result.orthogonality_max),
        "divisions_checked": result.divisions_checked,
    }
    _write_doc(doc, args.outfile)
    return EXIT_OK if result.zcc_all_zero and result.orthogonality_max == 0 else 1


def _cmd_qd(args) -> int:
    doc = _read_doc(args.infile)
    moments = jsondoc.rat_list(jsondoc.need(doc, "moments"))
    n_max, k_max = args.window
    # the deepest read, minor(n_max + 2, k_max + 2) of zcc2_residual, ends at
    # moment index 2 n_max + k_max + 4
    qd = classical.QdField(moments[:2 * n_max + k_max + 5])
    grid = [[qd.vw(n, k) for k in range(k_max + 1)] for n in range(n_max + 1)]
    residual_zero = True
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            if any(classical.zcc2_residual(qd, n, k)):
                residual_zero = False
    out = {
        "kind": "qd_field",
        "convention": jsondoc.CONVENTION,
        "window": [n_max, k_max],
        "v": [[jsondoc.rat_str(v) for v, _ in row] for row in grid],
        "w": [[jsondoc.rat_str(w) for _, w in row] for row in grid],
        "zcc2_residual": "zero" if residual_zero else "nonzero",
    }
    _write_doc(out, args.outfile)
    return EXIT_OK if residual_zero else 1


# -- wiring ---------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and building it costs more than many of the calls it serves."""
    parser = argparse.ArgumentParser(
        prog="hplax",
        description="Exact tables, recurrence fields, transition matrices, and "
                    "the lattice boundary-value problem for pairs of moment "
                    "sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--in", dest="infile", required=True,
                       help="input JSON document ('-' for stdin)")
        p.add_argument("--out", dest="outfile", default=None,
                       help="output path (default: stdout)")

    p_gen = sub.add_parser("gen", help="generate a moment system document")
    p_gen.add_argument("--system", required=True,
                       choices=["angelesco", "nikishin", "moments", "jfraction"])
    add_common(p_gen)
    p_gen.add_argument("--order", type=nonnegative, default=None,
                       help="number of moments to generate")
    p_gen.add_argument("--window", nargs=2, type=nonnegative, default=None,
                       metavar=("N", "M"),
                       help="alternatively: generate 2(N+M)+4 moments, enough "
                            "for this window")
    p_gen.set_defaults(func=_cmd_gen)

    for name, func, text in (
            ("table", _cmd_table, "determinant and polynomial grids"),
            ("coeffs", _cmd_coeffs, "recurrence coefficient grids"),
            ("solve-bvp", _cmd_solve_bvp, "sweep the boundary-value problem"),
            ("verify", _cmd_verify, "cross-validate all routes"),
            ("qd", _cmd_qd, "qd coefficient grids and 2x2 residuals")):
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.add_argument("--window", nargs=2, type=nonnegative, required=True,
                       metavar=("N", "M"))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  Integers of any size
    convert to and from text for the call: the interpreter's digit limit is
    lifted and put back on return, since callers may run main in-process."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the parse exit code
        return ParseError.exit_code if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except HplaxError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
