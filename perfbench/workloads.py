"""The four seeded closed-loop workloads and their independent output checkers.

Each workload is one caller that sends its next request only after the
previous one returned.  Inputs come from the seed alone and are built with
the standard library, so generating them needs neither numpy nor cyclotope.
Requests are grouped in rounds: every round of a workload has the same mix
of request sizes and the seed picks the order and the contents.  A run stops
at a round boundary, so every run measures the same mix.

A workload class gives prepare(ct) (untimed set-up through the library),
warmup_op(), next_round(), execute(ct, op) (the timed call) and
check(op, result); cli marks workloads whose result is (exit code, stdout).

Checkers run outside the timed region.  They never ask the library for an
expected value: they recompute it from the generated inputs with plain set,
popcount and binomial arithmetic.  A checker returns None for a correct
answer and a one-line reason otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from itertools import accumulate


def run_cli(ct, argv):
    """cli.main in-process with stdout captured; returns (exit code, text).

    In-process because a subprocess cannot pass a tope longer than the
    128 KiB per-argument limit of argv.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = ct.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit 2
            rc = exc.code
    return rc, buf.getvalue()


def _cli_error(result):
    rc, _ = result
    return None if rc == 0 else f"exit code {rc}, expected 0"


def _mask(signs):
    """Bitmask of a +-1 sequence: bit e-1 set where entry e is -1."""
    return int("".join("1" if v < 0 else "0" for v in reversed(signs)) or "0", 2)


def _size(mask, t):
    """Minimal decomposition size: adjacent sign changes plus [T(1) = T(t)]."""
    changes = ((mask ^ (mask >> 1)) & ((1 << (t - 1)) - 1)).bit_count()
    return changes + (((mask ^ (mask >> (t - 1))) & 1) == 0)


def _spectrum(mask, t):
    """Telescoping coordinates of the tope with this mask, as a list."""
    s = [-1 if mask >> e & 1 else 1 for e in range(t)]
    return [(s[0] + s[-1]) // 2] + [(s[j] - s[j - 1]) // 2 for j in range(1, t)]


def _subset_mask(members):
    m = 0
    for e in members:
        m |= 1 << (e - 1)
    return m


class DecomposeCli:
    """`decompose --t 65536 --tope=<s>` through cli.main, stdout captured.

    The tope goes in the --tope= form because argparse reads a separate
    argument that starts with '-' as an option (exit 2).
    """

    name = "decompose-cli"
    cli = True
    t = 65536
    densities = (0.5, 0.05, 0.005)

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")

    def _tope(self, density):
        rng = self.rng
        sign = rng.random() < 0.5
        chars = []
        for _ in range(self.t):
            if rng.random() < density:
                sign = not sign
            chars.append("+" if sign else "-")
        return "".join(chars)

    def prepare(self, ct):
        pass

    def warmup_op(self):
        return self._tope(0.05)

    def next_round(self):
        order = list(self.densities) * 2
        self.rng.shuffle(order)
        return [self._tope(d) for d in order]

    def execute(self, ct, tope):
        return run_cli(ct, ["decompose", "--t", str(self.t), f"--tope={tope}"])

    def check(self, tope, result):
        err = _cli_error(result)
        if err:
            return err
        rec = json.loads(result[1])
        x = rec["x"]
        if len(x) != self.t or any(c not in (-1, 0, 1) for c in x):
            return "x is not a {-1, 0, 1} vector of length t"
        changes = sum(a != b for a, b in zip(tope, tope[1:]))
        want_size = changes + (tope[0] == tope[-1])
        if rec["size"] != want_size:
            return f"size {rec['size']} != sign changes + [T(1)=T(t)] = {want_size}"
        prefix = list(accumulate(x))
        total = prefix[-1]
        rebuilt = "".join("+" if 2 * p - total == 1 else "-" if 2 * p - total == -1 else "?"
                          for p in prefix)
        if rebuilt != tope:
            return "prefix sums of x do not rebuild the tope"
        want_terms = [{"sign": c, "index": i} for i, c in enumerate(x) if c]
        if rec["terms"] != want_terms:
            return "terms are not the nonzero entries of x"
        return None


class ReorientQueries:
    """Library calls over a pool of 64 topes, t log-uniform in 2^5..2^12.

    A request on one pool tope T: 8 equal-size criteria with |A| <= t/3,
    2 reorientations each compared by indicator and size difference, one
    write (spectrum_update + reorient) that replaces the pool entry, then
    decomposition_set of the new tope.  The last request of every round of
    64 also calls negpart_meet_join_from_spectra(old, new), which is
    quadratic in the supports; it always lands on the t = 1024 entry so its
    cost is the same in every round.
    """

    name = "reorient-queries"
    cli = False
    pool_size = 64
    heavy_index = 45  # t = 32 * 128**(45/63) = 1024

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ts = [round(32 * 128 ** (k / (self.pool_size - 1))) for k in range(self.pool_size)]
        self.initial = [self.rng.getrandbits(t) for t in self.ts]
        self.masks = list(self.initial)  # the expected state, ahead of the library's
        self.pool = None

    def prepare(self, ct):
        """Build the pool's topes and spectra from the initial masks."""
        self.pool = []
        for mask, t in zip(self.initial, self.ts):
            T = ct.Tope([-1 if mask >> e & 1 else 1 for e in range(t)])
            self.pool.append((T, ct.spectrum_fast(T)))

    def _request(self, k, heavy=False):
        rng = self.rng
        t = self.ts[k]
        ground = range(1, t + 1)
        old = self.masks[k]
        queries = [rng.sample(ground, rng.randint(1, max(1, t // 3))) for _ in range(8)]
        flips = [rng.sample(ground, rng.randint(1, t // 2)) for _ in range(2)]
        write = rng.sample(ground, rng.randint(1, max(1, t // 10)))
        new = old ^ _subset_mask(write)
        self.masks[k] = new
        return {"k": k, "t": t, "old": old, "new": new, "queries": queries,
                "flips": flips, "write": write, "heavy": heavy}

    def warmup_op(self):
        return self._request(0)

    def next_round(self):
        others = [k for k in range(self.pool_size) if k != self.heavy_index]
        self.rng.shuffle(others)
        return [self._request(k) for k in others] + [self._request(self.heavy_index, heavy=True)]

    def execute(self, ct, op):
        k, t = op["k"], op["t"]
        T, x = self.pool[k]
        criteria = [ct.equal_size_criterion(T, ct.GroundSubset(t, A)) for A in op["queries"]]
        compared = []
        for B in op["flips"]:
            T2 = ct.reorient(T, ct.GroundSubset(t, B))
            compared.append((T2, ct.equinumerosity_indicator(T, T2), ct.size_difference(T, T2)))
        S = ct.GroundSubset(t, op["write"])
        x_new = ct.spectrum_update(x, T, S)
        T_new = ct.reorient(T, S)
        self.pool[k] = (T_new, x_new)
        terms = ct.decomposition_set(T_new).terms
        meet_join = ct.negpart_meet_join_from_spectra(x, x_new) if op["heavy"] else None
        return criteria, compared, x_new, T_new, terms, meet_join

    def check(self, op, result):
        criteria, compared, x_new, T_new, terms, meet_join = result
        t, old, new = op["t"], op["old"], op["new"]
        base = _size(old, t)
        for A, report in zip(op["queries"], criteria):
            want = base == _size(old ^ _subset_mask(A), t)
            if report.equal != want:
                return f"criterion says equal={report.equal}, popcount sizes say {want}"
        for B, (T2, indicator, difference) in zip(op["flips"], compared):
            flipped = old ^ _subset_mask(B)
            if _mask(T2.signs.tolist()) != flipped:
                return "reorient flipped the wrong coordinates"
            want = base - _size(flipped, t)
            if indicator != want or difference != want:
                return f"indicator {indicator} / size difference {difference} != {want}"
        if _mask(T_new.signs.tolist()) != new:
            return "written tope is not the reorientation on S"
        spectrum = _spectrum(new, t)
        if x_new.coords.tolist() != spectrum:
            return "spectrum_update differs from the recomputed spectrum"
        if list(terms) != [(c, i) for i, c in enumerate(spectrum) if c]:
            return "decomposition terms are not the nonzero spectrum entries"
        if op["heavy"]:
            want = ((old & new).bit_count(), (old | new).bit_count())
            if tuple(meet_join) != want:
                return f"meet/join {meet_join} != set arithmetic {want}"
        return None


class CountTable:
    """`stats --t N --format csv|json`, every 4th op `stats --t M --enumerate`.

    A round holds 12 table requests with N on a fixed log-spaced grid over
    [16, 320], alternately csv and json along the grid, and 4 enumerations
    with M in {14, 16, 18, 20}; the seed picks the order.  Each (N, format)
    pair keeps one format, so p90, which falls inside the N = 244 ops, reads
    one kind of op.
    """

    name = "count-table"
    cli = True
    grid = tuple(round(16 * 20 ** (i / 11)) for i in range(12))
    enum_ts = (14, 16, 18, 20)

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")

    def prepare(self, ct):
        pass

    def warmup_op(self):
        return ("enum", 20, "csv")

    def next_round(self):
        stats = list(enumerate(self.grid))
        self.rng.shuffle(stats)
        enums = list(self.enum_ts)
        self.rng.shuffle(enums)
        ops = []
        for pos, (i, n) in enumerate(stats):
            ops.append(("stats", n, ("csv", "json")[i % 2]))
            if pos % 3 == 2:
                ops.append(("enum", enums[pos // 3], "csv"))
        return ops

    def execute(self, ct, op):
        kind, t, fmt = op
        if kind == "enum":
            return run_cli(ct, ["stats", "--t", str(t), "--enumerate"])
        return run_cli(ct, ["stats", "--t", str(t), "--format", fmt])

    def check(self, op, result):
        err = _cli_error(result)
        if err:
            return err
        kind, t, fmt = op
        text = result[1]
        if fmt == "json":
            rows = json.loads(text)
        else:
            lines = text.splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, map(int, line.split(",")))) for line in lines[1:]]
        columns = {}
        cells = set()
        for row in rows:
            if row["t"] != t:
                return f"row for t={row['t']} in a t={t} table"
            if (row["j"], row["l"]) in cells:
                return f"cell (j={row['j']}, l={row['l']}) repeated"
            cells.add((row["j"], row["l"]))
            columns[row["l"]] = columns.get(row["l"], 0) + row["count_formula"]
            if kind == "enum" and row["count_enum"] != row["count_formula"]:
                return f"count_enum != count_formula at j={row['j']}, l={row['l']}"
        total = sum(columns.values())
        if total != 1 << t:
            return f"table total {total} != 2^{t}"
        want = {l: 2 * math.comb(t, l) for l in range(1, t + 1, 2)}
        if columns != want:
            return "column sums differ from 2*C(t, l)"
        return None


# The sweeps `verify` reports and the largest t each runs at; a sweep is
# reported as skipped exactly above its cap.  None means uncapped; the
# oracle runs up to the default --oracle-max of 7.
VERIFY_CAPS = {
    "boundary-classes": 12,
    "counting": 14,
    "cycle-structure": None,
    "decompositions": 12,
    "equinumerosity": 8,
    "flip-spectra": 12,
    "matrix-identities": 64,
    "negpart-cardinalities": 8,
    "oracle": 7,
    "size-difference": 8,
    "spectrum-methods": 14,
    "spectrum-updates": None,
}


class VerifySweep:
    """`verify --t N` through cli.main, N cycling through 4, 5 and 6.

    A round is N = 4, 4, 5, 5, 5, 6 in seeded order: the median then falls
    inside the t = 5 ops and p90 inside the t = 6 ops, never on the edge
    between two sizes, and 100 ops fit in a 25 s run.
    """

    name = "verify-sweep"
    cli = True
    ts = (4, 4, 5, 5, 5, 6)

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")

    def prepare(self, ct):
        pass

    def warmup_op(self):
        return 4

    def next_round(self):
        order = list(self.ts)
        self.rng.shuffle(order)
        return order

    def execute(self, ct, t):
        return run_cli(ct, ["verify", "--t", str(t)])

    def check(self, t, result):
        err = _cli_error(result)
        if err:
            return err
        lines = result[1].splitlines()
        if lines[-1] != f"verify t={t}: ok":
            return f"last line {lines[-1]!r}"
        status = dict(line.split(": ", 1) for line in lines[:-1] if not line.startswith(" "))
        for name, cap in VERIFY_CAPS.items():
            want = "skipped" if cap is not None and t > cap else "ok"
            if status.get(name) != want:
                return f"sweep {name}: {status.get(name)!r}, expected {want!r}"
        extra = {s for n, s in status.items() if n not in VERIFY_CAPS} - {"ok", "skipped"}
        if extra:
            return f"unexpected sweep status {sorted(extra)}"
        return None


WORKLOADS = {w.name: w for w in (DecomposeCli, ReorientQueries, CountTable, VerifySweep)}
