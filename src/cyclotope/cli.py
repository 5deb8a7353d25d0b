"""Command-line front end.

Subcommands: decompose, stats, verify, equinum, cycle, bench.  Output is
deterministic for a fixed invocation, except for the wall times that bench
prints and the per-sweep "seconds" of verify --format json.  JSON records use
the fixed field names x, terms, size, j, l, count_formula, count_enum.

verify counts each sweep's mismatches and builds a message for the first five
only, in block, then case, then check order; its cases are the rows or pairs
of rows each sweep compared.

Exit codes: 0 success, 1 mismatch or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

import numpy as np

from . import __version__
from .bench import run_bench
from .counting import ENUMERATION_CAP, _mirror, _table_columns, enumerate_statistics
from .cycle import build_cycle, inverse_gram_matrix, inverse_rows, tope_matrix
from .decomposition import spectrum_fast
from .equinumerosity import equal_size_criterion
from .errors import CyclotopeError, VerificationMismatch
from .topes import GroundSubset, Tope, _check_dimension

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: building costs about 20 times a parse.  Parsing
    # leaves the parser unchanged, so every main() call shares it.
    parser = argparse.ArgumentParser(
        prog="cyclotope",
        description="Minimal tope decompositions over the distinguished symmetric cycle",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("decompose", help="spectrum and minimal decomposition of one tope")
    p.add_argument("--t", type=int, required=True, help="dimension (>= 3)")
    p.add_argument("--tope", required=True,
                   help="sign string over '+'/'-' of length t, or '-' to read it from stdin")

    p = sub.add_parser("stats", help="counts of topes by negative-part size and term count")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--enumerate", dest="enumerate_counts", action="store_true",
                   help=f"cross-check formulas by full enumeration (t <= {ENUMERATION_CAP})")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", help="write the table to this path instead of stdout")

    p = sub.add_parser("verify", help="run every invariant sweep at dimension t")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="json: one object with each sweep's status, mismatches, cases, "
                        "seconds and cap")

    p = sub.add_parser("equinum", help="equal-size criterion for a tope and a reorientation set")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--tope", required=True, help="as for decompose, including '-' for stdin")
    p.add_argument("--subset", required=True, help="comma-separated 1-based indices, or 'none'")

    p = sub.add_parser("cycle", help="print the cycle vertices or one of the exact matrices")
    p.add_argument("--t", type=int, required=True)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--matrix", action="store_const", dest="matrix_kind", const="matrix",
                      help="rows are the first t cycle vertices")
    kind.add_argument("--inverse", action="store_const", dest="matrix_kind", const="inverse",
                      help="inverse of the vertex matrix, scaled by 2")
    kind.add_argument("--omega", action="store_const", dest="matrix_kind", const="omega",
                      help="inverse Gram matrix, scaled by 4")

    p = sub.add_parser("bench", help="time the spectrum routes")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--reps", type=int, default=9, help="odd repetition count; median is reported")

    return parser


def _emit(pieces, path: Optional[str]) -> None:
    """Write the strings of pieces in order, to path or to stdout."""
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _read_tope(args: argparse.Namespace) -> Tope:
    """The --tope argument as a Tope; '-' reads the string from stdin.

    One trailing newline is stripped from stdin, so `echo ... |` works.  The
    argv route caps a string near 128 KiB; stdin has no such limit.
    """
    text = sys.stdin.read().removesuffix("\n") if args.tope == "-" else args.tope
    if len(text) != args.t:
        raise CyclotopeError(f"tope string has length {len(text)}, expected {args.t}")
    return Tope.from_string(text)


def _cmd_decompose(args: argparse.Namespace) -> int:
    sys.stdout.writelines(_decompose_parts(spectrum_fast(_read_tope(args)).coords))
    return 0


# Cells of the bulk JSON renderers.  A NUL byte pads a cell to its fixed
# width and is deleted from the list's bytes; the last cell's ", " is cut.
_X_CELLS = np.frombuffer(b"-1, \x000, \x001, ", dtype=np.uint32)
_TERM_HEAD = b'{"sign": \x001, "index": '
_TERM_SIGN = _TERM_HEAD.index(b"\x00")


def _joined(cells: np.ndarray) -> bytes:
    return cells.reshape(-1)[:-2].tobytes()


def _decompose_parts(coords: np.ndarray) -> list:
    """The decompose record as strings that concatenate to the json.dumps of
    its dict form and a newline.

    That dict is {"x": coords, "terms": [{"sign": s, "index": i}, ...],
    "size": number of terms}, with the terms at the nonzero coordinates in
    ascending index order.  Each list is rendered as one uint8 array of
    fixed-width cells, without a Python object per element.  About half or
    more of the x cells hold a pad, a density at which bytes.translate
    deletes them faster than bytes.replace; a term cell holds a few pads in
    31 or more bytes, where replace is the faster.
    """
    x = _joined(np.take(_X_CELLS, coords + 1).view(np.uint8))
    x = x.translate(None, b"\x00").decode("ascii")
    nz = (coords != 0).nonzero()[0]
    digits = len(str(coords.shape[0] - 1))
    head = len(_TERM_HEAD)
    terms = np.empty((nz.shape[0], head + digits + 3), dtype=np.uint8)
    terms[:] = np.frombuffer(_TERM_HEAD + b"\x00" * digits + b"}, ", dtype=np.uint8)
    terms[coords[nz] < 0, _TERM_SIGN] = ord("-")
    # The index in decimal, right-aligned; the ascending indices below 10^p
    # are a prefix of the rows, and their digit of 10^p is a leading zero.
    rest = nz.astype(np.uint32 if digits < 10 else np.uint64)
    digit = np.empty_like(rest)
    for p in range(digits):
        np.divmod(rest, 10, out=(rest, digit))
        column = terms[:, head + digits - 1 - p]
        np.add(digit, ord("0"), out=column, casting="unsafe")
        if p:
            column[: np.searchsorted(nz, 10**p)] = 0
    return [
        '{"x": [', x,
        '], "terms": [', _joined(terms).replace(b"\x00", b"").decode("ascii"),
        '], "size": %d}\n' % nz.shape[0],
    ]


def _cmd_stats(args: argparse.Namespace) -> int:
    """The table as CSV, or as the json.dumps of its rows as dicts with the
    keys t, j, l, count_formula and, with --enumerate, count_enum.  Each
    column of _table_columns is one join of its rows' cells, written as it
    comes; the j strings are built once, and a column's counts are converted
    for its first half only, as the second half mirrors them.
    """
    t = _check_dimension(args.t)
    enum = {(j, l): c for j, l, c in enumerate_statistics(t)} if args.enumerate_counts else None
    if args.format == "json":
        first = f'[{{"t": {t}, "j": '
        lead, tail = "}, " + first[1:], "}]\n"
        cell, extra = ', "l": %d, "count_formula": ', ', "count_enum": '
    else:
        lead, tail = f"\n{t},", "\n"
        cell, extra = ",%d,", ","
        first = "t,j,l,count_formula" + (",count_enum" if enum is not None else "") + lead
    mismatch = False

    def pieces():
        nonlocal mismatch
        js = list(map(str, range(t + 1)))
        prefix = first
        for l, j0, half in _table_columns(t):
            counts = _mirror(list(map(str, half)), t)
            n = len(counts)
            row = [lead, "", cell % l, ""] + ([extra, ""] if enum is not None else [])
            parts = row * n
            parts[0] = prefix
            parts[1 :: len(row)] = js[j0 : j0 + n]
            parts[3 :: len(row)] = counts
            if enum is not None:
                column = [enum.pop((j, l), 0) for j in range(j0, j0 + n)]
                mismatch |= column != _mirror(half, t)
                parts[5 :: len(row)] = map(str, column)
            yield "".join(parts)
            prefix = lead
        # Formula rows are exactly the nonzero ones, so an enumerated cell
        # left over is itself a mismatch.
        mismatch |= bool(enum)
        yield tail

    _emit(pieces(), args.output)
    return 1 if mismatch else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Render run_report: one line per sweep in name order, or with --format
    json one object whose "sweeps" hold each sweep's status, mismatch count,
    first mismatches, cases compared, seconds and cap.  The mismatches are
    counted; only the first five of each sweep, in block, then case, then
    check order, get a message.  The cases are the rows or pairs of rows the
    sweep compared.  Text never shows timing.
    """
    from .verification import run_report

    sweeps = {
        name: dict(sweep, seconds=round(sweep["seconds"], 6))
        for name, sweep in sorted(run_report(args.t).items())
    }
    bad = any(sweep["status"] == "FAIL" for sweep in sweeps.values())
    if args.format == "json":
        record = {"t": args.t, "status": "FAIL" if bad else "ok", "sweeps": sweeps}
        print(json.dumps(record))
        return 1 if bad else 0
    for name, sweep in sweeps.items():
        if sweep["status"] == "FAIL":
            print(f"{name}: FAIL ({sweep['mismatches']} mismatches)")
            for issue in sweep["first_mismatches"]:
                print(f"  {issue}")
        else:
            print(f"{name}: {sweep['status']}")
    print(f"verify t={args.t}: {'FAIL' if bad else 'ok'}")
    return 1 if bad else 0


def _cmd_equinum(args: argparse.Namespace) -> int:
    T = _read_tope(args)
    A = GroundSubset.from_string(args.t, args.subset)
    report = equal_size_criterion(T, A)
    print(json.dumps({"equal": report.equal, "lhs_sum": report.lhs_sum, "rhs": report.rhs}))
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    if args.matrix_kind is None:
        for vertex in build_cycle(args.t):
            print(vertex)
        return 0
    matrix = {
        "matrix": tope_matrix,
        "inverse": inverse_rows,
        "omega": inverse_gram_matrix,
    }[args.matrix_kind](args.t)
    print(f"denom: {matrix.denom}")
    for row in matrix.entries:
        print(" ".join(map(str, row.tolist())))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    card = run_bench(args.t, reps=args.reps)
    print(json.dumps(card, indent=2))
    return 0


_DISPATCH = {
    "decompose": _cmd_decompose,
    "stats": _cmd_stats,
    "verify": _cmd_verify,
    "equinum": _cmd_equinum,
    "cycle": _cmd_cycle,
    "bench": _cmd_bench,
}


def run(args: argparse.Namespace) -> int:
    """Dispatch parsed arguments; returns the process exit status.

    A request too large for the memory available is a usage error, like one
    above a cap.
    """
    try:
        return _DISPATCH[args.subcommand](args)
    except (CyclotopeError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1 if isinstance(exc, VerificationMismatch) else 2


def main(argv=None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
