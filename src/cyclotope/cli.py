"""Command-line front end.

Subcommands: decompose, stats, verify, equinum, cycle, bench.  Output is
deterministic for a fixed configuration; JSON records use the fixed field
names x, terms, size, j, l, count_formula, count_enum.

Exit codes: 0 success, 1 mismatch or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .bench import run_bench
from .counting import ENUMERATION_CAP, enumerate_statistics, formula_table
from .cycle import build_cycle, inverse_gram_matrix, inverse_rows, tope_matrix
from .decomposition import spectrum_dense, spectrum_fast, spectrum_intervals
from .equinumerosity import equal_size_criterion
from .errors import CyclotopeError
from .topes import GroundSubset, Tope

_METHODS = {
    "dense": spectrum_dense,
    "fast": spectrum_fast,
    "intervals": spectrum_intervals,
}


@dataclass(frozen=True)
class CommandConfig:
    """Validated invocation: one subcommand plus its options."""

    subcommand: str
    t: int
    tope: Optional[str] = None
    subset: Optional[str] = None
    method: str = "fast"
    format: str = "text"
    output: Optional[str] = None
    enumerate_counts: bool = False
    oracle: bool = False
    oracle_max: int = 7
    reps: int = 9
    matrix_kind: Optional[str] = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclotope",
        description="Minimal tope decompositions over the distinguished symmetric cycle",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("decompose", help="spectrum and minimal decomposition of one tope")
    p.add_argument("--t", type=int, required=True, help="dimension (>= 3)")
    p.add_argument("--tope", required=True, help="sign string over '+'/'-' of length t")
    p.add_argument("--method", choices=["dense", "fast", "intervals", "all"], default="fast")

    p = sub.add_parser("stats", help="counts of topes by negative-part size and term count")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--enumerate", dest="enumerate_counts", action="store_true",
                   help=f"cross-check formulas by full enumeration (t <= {ENUMERATION_CAP})")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", help="write the table to this path instead of stdout")

    p = sub.add_parser("verify", help="run every invariant sweep at dimension t")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--oracle-max", type=int, default=7,
                   help="largest t at which the brute-force oracle sweep runs")

    p = sub.add_parser("equinum", help="equal-size criterion for a tope and a reorientation set")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--tope", required=True)
    p.add_argument("--subset", required=True, help="comma-separated 1-based indices, or 'none'")
    p.add_argument("--oracle", action="store_true", help="also compare the two sizes directly")

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


def _config_from_args(args: argparse.Namespace) -> CommandConfig:
    return CommandConfig(
        subcommand=args.subcommand,
        t=args.t,
        tope=getattr(args, "tope", None),
        subset=getattr(args, "subset", None),
        method=getattr(args, "method", "fast"),
        format=getattr(args, "format", "text"),
        output=getattr(args, "output", None),
        enumerate_counts=getattr(args, "enumerate_counts", False),
        oracle=getattr(args, "oracle", False),
        oracle_max=getattr(args, "oracle_max", 7),
        reps=getattr(args, "reps", 9),
        matrix_kind=getattr(args, "matrix_kind", None),
    )


def _emit(lines, path: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_decompose(config: CommandConfig) -> int:
    T = Tope.from_string(config.tope)
    if config.method == "all":
        spectra = {name: fn(T) for name, fn in _METHODS.items()}
        values = list(spectra.values())
        agreement = all(x == values[0] for x in values)
        x = values[0]
    else:
        agreement = None
        x = _METHODS[config.method](T)
    record = {
        "x": [int(c) for c in x.coords],
        "terms": [
            {"sign": int(x.coords[i]), "index": int(i)}
            for i in range(config.t)
            if x.coords[i]
        ],
        "size": x.support_size,
    }
    if agreement is not None:
        record["agreement"] = agreement
    print(json.dumps(record))
    return 0 if agreement in (None, True) else 1


def _cmd_stats(config: CommandConfig) -> int:
    formula = formula_table(config.t)
    enum = enumerate_statistics(config.t) if config.enumerate_counts else None
    mismatch = False
    rows = []
    for j, l, count in formula:
        row = {"t": config.t, "j": j, "l": l, "count_formula": count}
        if enum is not None:
            row["count_enum"] = enum.count(j, l)
            mismatch = mismatch or row["count_enum"] != count
        rows.append(row)
    if enum is not None:
        # Formula rows are exactly the nonzero ones, so any extra enumerated
        # row is itself a mismatch.
        known = {(j, l) for j, l, _ in formula}
        mismatch = mismatch or any((j, l) not in known for j, l, _ in enum)
    if config.format == "json":
        lines = [json.dumps(rows)]
    else:
        header = "t,j,l,count_formula" + (",count_enum" if enum is not None else "")
        lines = [header]
        for row in rows:
            cells = [row["t"], row["j"], row["l"], row["count_formula"]]
            if enum is not None:
                cells.append(row["count_enum"])
            lines.append(",".join(str(c) for c in cells))
    _emit(lines, config.output)
    return 1 if mismatch else 0


def _cmd_verify(config: CommandConfig) -> int:
    from .verification import failures, run_all

    results = run_all(config.t, oracle_max=config.oracle_max)
    for name in sorted(results):
        issues = results[name]
        if issues == ["skipped"]:
            print(f"{name}: skipped")
        elif not issues:
            print(f"{name}: ok")
        else:
            print(f"{name}: FAIL ({len(issues)} mismatches)")
            for issue in issues[:5]:
                print(f"  {issue}")
    bad = failures(results)
    print(f"verify t={config.t}: {'FAIL' if bad else 'ok'}")
    return 1 if bad else 0


def _cmd_equinum(config: CommandConfig) -> int:
    T = Tope.from_string(config.tope)
    A = GroundSubset.from_string(config.t, config.subset)
    report = equal_size_criterion(T, A, include_direct=config.oracle)
    record = {"equal": report.equal, "lhs_sum": report.lhs_sum, "rhs": report.rhs}
    if report.direct_equal is not None:
        record["direct_equal"] = report.direct_equal
    print(json.dumps(record))
    if report.direct_equal is not None and report.direct_equal != report.equal:
        print("criterion disagrees with the direct comparison", file=sys.stderr)
        return 1
    return 0


def _cmd_cycle(config: CommandConfig) -> int:
    if config.matrix_kind is None:
        cycle = build_cycle(config.t)
        for k in range(2 * config.t):
            print(cycle.vertex(k))
        return 0
    matrix = {
        "matrix": tope_matrix,
        "inverse": inverse_rows,
        "omega": inverse_gram_matrix,
    }[config.matrix_kind](config.t)
    print(f"denom: {matrix.denom}")
    for row in matrix.entries:
        print(" ".join(str(int(v)) for v in row))
    return 0


def _cmd_bench(config: CommandConfig) -> int:
    card = run_bench(config.t, reps=config.reps)
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


def run(config: CommandConfig) -> int:
    """Dispatch a validated configuration; returns the process exit status."""
    try:
        if config.tope is not None and len(config.tope) != config.t:
            raise CyclotopeError(f"tope string has length {len(config.tope)}, expected {config.t}")
        return _DISPATCH[config.subcommand](config)
    except (CyclotopeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = _build_parser()
    return run(_config_from_args(parser.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
