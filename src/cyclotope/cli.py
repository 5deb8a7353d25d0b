"""Command-line front end.

Subcommands: decompose, stats, verify, equinum, cycle, bench.  Output is
deterministic for a fixed invocation, except for the wall times that bench
prints and the per-sweep "seconds" of verify --format json.  JSON records use
the fixed field names x, terms, size, j, l, count_formula, count_enum.

verify runs every sweep under the one contract of verification._sweep: a
sweep counts all its mismatches and names the first five only, in block,
then case, then check order.  Any exception raised inside a sweep other than
CapExceeded and MemoryError, a broken route failing or a kernel's guard
refusing it, is one more mismatch, so a broken route exits 1 with the full
report.  The cases are the rows or pairs of rows each sweep compared.

decompose and stats write their records a block at a time, so a failure
partway through leaves a truncated record on stdout; it exits by the codes
below, 2 for MemoryError or OSError and 1 for a library fault.

Exit codes: 0 success, 1 mismatch or internal fault (a kernel guard refusing
what the library computed), 2 usage error, verify below t = 3 included.  The
--tope and --subset strings are the only input the library parses, so their
ValueError is a usage error; any other exception raised while serving a valid
request is a fault, and exits 1 as "error: <type>: <message>".
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
from .cycle import SymmetricCycle, inverse_gram_matrix, inverse_rows, tope_matrix
from .decomposition import spectrum_fast
from .equinumerosity import equal_size_criterion
from .errors import CyclotopeError, VerificationMismatch
from .topes import GroundSubset, Tope, _check_dimension, _row_blocks

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
    p.set_defaults(command=_cmd_decompose)

    p = sub.add_parser("stats", help="counts of topes by negative-part size and term count")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--enumerate", dest="enumerate_counts", action="store_true",
                   help="cross-check the formulas against an exact tally of all 2^t topes, "
                        f"in one pass over the coordinates (t <= {ENUMERATION_CAP})")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", help="write the table to this path instead of stdout")
    p.set_defaults(command=_cmd_stats)

    p = sub.add_parser("verify", help="run every invariant sweep at dimension t")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="json: one object with each sweep's status, mismatches, cases, "
                        "seconds and cap")
    p.set_defaults(command=_cmd_verify)

    p = sub.add_parser("equinum", help="equal-size criterion for a tope and a reorientation set")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--tope", required=True, help="as for decompose, including '-' for stdin")
    p.add_argument("--subset", required=True, help="comma-separated 1-based indices, or 'none'")
    p.set_defaults(command=_cmd_equinum)

    p = sub.add_parser("cycle", help="print the cycle vertices or one of the exact matrices")
    p.add_argument("--t", type=int, required=True)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--matrix", action="store_const", dest="build", const=tope_matrix,
                      help="rows are the first t cycle vertices")
    kind.add_argument("--inverse", action="store_const", dest="build", const=inverse_rows,
                      help="inverse of the vertex matrix, scaled by 2")
    kind.add_argument("--omega", action="store_const", dest="build", const=inverse_gram_matrix,
                      help="inverse Gram matrix, scaled by 4")
    p.set_defaults(command=_cmd_cycle)

    p = sub.add_parser("bench", help="time the spectrum routes")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(command=_cmd_bench)

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
    argv route caps a string near 128 KiB; stdin has no such limit.  A --t
    below 3 is refused first, before stdin is read.
    """
    _check_dimension(args.t)
    text = sys.stdin.read().removesuffix("\n") if args.tope == "-" else args.tope
    if len(text) != args.t:
        raise CyclotopeError(f"tope string has length {len(text)}, expected {args.t}")
    return _parse(Tope.from_string, text)


def _parse(parse, *args):
    """parse(*args), with the ValueError of bad input raised as a usage error."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise CyclotopeError(str(exc)) from exc


def _cmd_decompose(args: argparse.Namespace) -> int:
    _emit(_decompose_parts(spectrum_fast(_read_tope(args)).coords), None)
    return 0


# A term row is _TERM_HEAD, the index's placeholder digits and "}, ".
_TERM_HEAD = b'{"sign": 0, "index": '


def _rows(row: bytes, signs: np.ndarray, index=None, last=False) -> str:
    """One copy of row per sign, as text, the last one without its ", ".

    A sign goes over the row's first "0" as ord("0") + sign, so a -1 reads
    "/" until one replace expands it to "-1" ("/" occurs nowhere else in a
    record); the index, if given, goes over the row's placeholder digits.
    """
    buf = bytearray(row) * signs.shape[0]
    cells = np.frombuffer(buf, dtype=np.uint8).reshape(signs.shape[0], len(row))
    np.add(signs, ord("0"), out=cells[:, row.index(b"0")], casting="unsafe")
    if index is not None:
        rest = index.astype(np.min_scalar_type(index[-1]))
        for col in range(len(row) - 4, len(_TERM_HEAD) - 1, -1):
            quot = rest // 10
            cells[:, col] += (rest - quot * 10).astype(np.uint8)
            rest = quot
    out = buf.replace(b"/", b"-1")
    return (out[:-2] if last else out).decode("ascii")


def _decompose_parts(coords: np.ndarray):
    """Yield the decompose record as strings that concatenate to the
    json.dumps of its dict form and a newline.

    That dict is {"x": coords, "terms": [{"sign": s, "index": i}, ...],
    "size": number of terms}, with the terms at the nonzero coordinates in
    ascending index order.  Each list is rendered by _rows a block of at
    most _BLOCK bytes at a time, a rendered row being at most one byte
    longer than its placeholder row.  The terms are found a window of
    _BLOCK coordinates at a time, so no buffer grows with t; within a
    window the indices of d digits are one run, whose term rows all have
    the same width, so no row carries a pad.
    """
    yield '{"x": ['
    for s in _row_blocks(len(coords), len(b"-1, ")):
        yield _rows(b"0, ", coords[s], last=s.stop == len(coords))
    yield '], "terms": ['
    size, done = np.count_nonzero(coords), 0
    widths = [10**d for d in range(1, len(str(len(coords) - 1)))]
    for window in _row_blocks(len(coords), 1):
        nz = (coords[window] != 0).nonzero()[0]
        nz += window.start
        for digits, run in enumerate(np.split(nz, np.searchsorted(nz, widths)), 1):
            row = _TERM_HEAD + b"0" * digits + b"}, "
            for s in _row_blocks(run.shape[0], len(row) + 1):
                index = run[s]
                done += index.shape[0]
                yield _rows(row, coords[index], index, last=done == size)
    yield '], "size": %d}\n' % size


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
    A = _parse(GroundSubset.from_string, args.t, args.subset)
    report = equal_size_criterion(T, A)
    print(json.dumps({"equal": report.equal, "lhs_sum": report.lhs_sum, "rhs": report.rhs}))
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    if args.build is None:
        for vertex in SymmetricCycle(args.t):
            print(vertex)
        return 0
    matrix = args.build(args.t)
    print(f"denom: {matrix.denom}")
    for row in matrix.entries:
        print(" ".join(map(str, row.tolist())))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    card = run_bench(args.t)
    print(json.dumps(card, indent=2))
    return 0


def run(args: argparse.Namespace) -> int:
    """Dispatch parsed arguments; returns the process exit status.

    A request too large for the memory available is a usage error, like one
    above a cap.  Any other exception is a fault, named as verify names one.
    """
    try:
        return args.command(args)
    except (CyclotopeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1 if isinstance(exc, VerificationMismatch) else 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
