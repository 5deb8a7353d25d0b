"""Benchmark runner for cyclotope: four seeded closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --probe-ref-ms 18.0 --workload decompose-cli \\
        --seed 1 --seconds 25 --trace 0

--workload all runs every workload, untraced and traced, each in a fresh
process, and prints one table.  The library is imported from ./src, never
from an installed copy; without ./src/cyclotope the runner exits 1.

Timed run (--trace 0).  WORKERS fresh processes run one after another,
each with one caller and its own seeded inputs.  A worker times its set-up
(import cyclotope, build the workload's state, one warm-up op), then runs
rounds of ops for its share of --seconds and at least its share of MIN_OPS
ops.  Only the calls into the library are timed; input generation and the
output checks run outside the timed region.  The parent pools the workers'
op times; setup_s is the median of their set-up times.  Splitting a run over
processes averages out the speed a single process happens to get.

Speed scaling.  Raw wall time on a shared 2-core machine does not repeat
within a tenth, and slow spells last seconds.  Every PROBE_EVERY_S, between
ops, the runner runs a fixed probe (make_probe); each op time is multiplied
by --probe-ref-ms over the median of the probes within SCALE_WINDOW_S of the
op, and set-up time by the reference over the median of its worker's probes in
the first SCALE_WINDOW_S.
The probe is this file's code, so it is identical on every commit of the
library.  Raw times are kept in the diagnostics.

Traced run (--trace 1).  Passes of one round each, from a fresh workload
with the same seed, run untraced and then traced (tracer.py) until
--seconds have passed.  Exact counts come from the first traced pass, so
two runs with the same seed report identical counts; times are per-op means
over all traced passes, scaled by the run's probe median.
trace.overhead_ratio is the traced over the untraced ops/s.

The last stdout line is the JSON result; the report lines before it give
each metric with its unit and the base of every ratio.  Diagnostics (raw
values, probe times, environment) and the spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MIN_OPS = 100  # so that at least 10 latencies lie above p90
MAX_RUN_FACTOR = 3  # hard stop at this many times --seconds
WORKERS = 3
PROBE_EVERY_S = 0.5
SCALE_WINDOW_S = 2.0


def import_cyclotope():
    """Import the package from ./src of this checkout; exit 1 if it is absent."""
    if not (SRC / "cyclotope" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'cyclotope'} not found; run from the root of a cyclotope checkout")
    sys.path.insert(0, str(SRC))
    import cyclotope
    import cyclotope.cli  # noqa: F401  (the CLI workloads call cyclotope.cli.main)

    if Path(cyclotope.__file__).resolve().parent != SRC / "cyclotope":
        sys.exit(f"error: imported cyclotope from {cyclotope.__file__}, not from {SRC}")
    return cyclotope


def make_probe():
    """The fixed speed probe, about 18 ms at nominal speed; returns seconds.

    Its parts mirror what the workloads spend time on: a bytecode loop with
    a numpy reduction, small-object allocation with a sort, and JSON encode
    and decode.  Over 2 s windows in one process, the op time of every
    workload grows in proportion to this probe's time (log-log slope 1.0 to
    1.2); the loop alone under-reads slow spells (slope 1.2 to 1.5).
    """
    import numpy as np

    data = np.arange(1 << 20, dtype=np.int64)
    ints = list(range(30_000))

    def probe():
        start = perf_counter()
        acc = 0
        for i in range(25_000):
            acc ^= i * i
        data.sum()
        table = {i: (i, str(i)) for i in range(10_000)}
        sorted(table.values(), key=lambda v: v[1])
        json.loads(json.dumps(ints))
        return perf_counter() - start

    return probe


class Clock:
    """Runs the probe between ops and scales op times to nominal speed.

    An op's scale is the reference over the median of the probes taken
    within SCALE_WINDOW_S of it: slow spells last seconds, so nearby probes
    track them better than the run's median does.
    """

    def __init__(self, probe):
        self.probe = probe
        self.probes = []
        self.probe_at = []
        self.last = None
        self.between_ops()

    def between_ops(self, force=False):
        now = perf_counter()
        if force or self.last is None or now - self.last >= PROBE_EVERY_S:
            self.probes.append(self.probe())
            self.probe_at.append(now)
            self.last = perf_counter()

    def scale(self, ref_ms):
        """The run's scale factor: reference over the probe median."""
        return ref_ms / (1000 * statistics.median(self.probes))

    def scaled(self, ref_ms, starts, latencies):
        """Each latency times its local scale factor."""
        out = []
        for start, elapsed in zip(starts, latencies):
            lo = bisect.bisect_left(self.probe_at, start - SCALE_WINDOW_S)
            hi = bisect.bisect_right(self.probe_at, start + elapsed + SCALE_WINDOW_S)
            near = self.probes[max(0, lo - 1):hi + 1]
            out.append(elapsed * ref_ms / (1000 * statistics.median(near)))
        return out


def run_op(ct, workload, op, tracer=None, op_id=None):
    """Run one op; returns (seconds, error or None, result)."""
    frame = tracer.begin_op(op_id) if tracer else None
    start = perf_counter()
    try:
        result = workload.execute(ct, op)
        error = None
    except Exception as exc:  # a raising op is a failed op, not a crash
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if tracer:
        tracer.end_op(frame)
    if error is None:
        error = workload.check(op, result)
    return elapsed, error, result


def fresh_workload(ct, name, seed):
    """A workload after set-up and its (checked) warm-up op."""
    workload = WORKLOADS[name](seed)
    workload.prepare(ct)
    _, error, _ = run_op(ct, workload, workload.warmup_op())
    return workload, error


# -- timed run ------------------------------------------------------------


def worker(args):
    """One process of a timed run: timed set-up, then its share of the ops."""
    workload = WORKLOADS[args.workload](f"{args.seed}/{args.worker}")
    warmup = workload.warmup_op()
    start = perf_counter()
    ct = import_cyclotope()
    workload.prepare(ct)
    before = perf_counter()
    elapsed, error, _ = run_op(ct, workload, warmup)
    setup = before - start + elapsed  # the check after the warm-up is not set-up
    errors = [f"warm-up: {error}"] if error else []

    clock = Clock(make_probe())
    starts, latencies = [], []
    failed = 0
    min_ops = -(-MIN_OPS // WORKERS)
    begin = perf_counter()
    while True:
        for op in workload.next_round():
            starts.append(perf_counter())
            elapsed, error, _ = run_op(ct, workload, op)
            latencies.append(elapsed)
            if error:
                failed += 1
                errors.append(error)
            clock.between_ops()
        wall = perf_counter() - begin
        if (wall >= args.seconds and len(latencies) >= min_ops) or wall >= MAX_RUN_FACTOR * args.seconds:
            break
    clock.between_ops(force=True)
    early = [p for p, at in zip(clock.probes, clock.probe_at) if at < begin + SCALE_WINDOW_S]
    print(json.dumps({
        "setup_s": setup,
        "setup_scaled_s": setup * args.probe_ref_ms / (1000 * statistics.median(early)),
        "scaled_s": clock.scaled(args.probe_ref_ms, starts, latencies),
        "latencies_s": latencies,
        "op_start_s": starts,
        "probe_ms": [1000 * p for p in clock.probes],
        "probe_at_s": clock.probe_at,
        "failed": failed,
        "errors": errors,
        "wall_s": perf_counter() - begin,
        "scale": clock.scale(args.probe_ref_ms),
    }))


def end_to_end(ct, args, probe):
    parts = []
    for i in range(WORKERS):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--worker", str(i), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
             "--probe-ref-ms", str(args.probe_ref_ms)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"error: worker {i} exited with {out.returncode}")
        parts.append(json.loads(out.stdout.splitlines()[-1]))
    latencies = [x for part in parts for x in part["scaled_s"]]
    raw = [x for part in parts for x in part["latencies_s"]]
    errors = [e for part in parts for e in part["errors"]]
    n = len(latencies)
    failed = sum(part["failed"] for part in parts)
    busy, raw_busy = sum(latencies), sum(raw)
    setups = [part["setup_scaled_s"] for part in parts]
    metrics = {
        "ops_per_s": n / busy,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ok_ops_ratio": (n - failed) / n,
    }
    bases = {
        "ops_per_s": f"{n} ops / {busy:.3f} s scaled busy time in {WORKERS} processes; "
                     f"raw {n / raw_busy:.3f} 1/s over {raw_busy:.3f} s",
        "op_p50_ms": f"median of {n} ops; raw {1000 * statistics.median(raw):.3f} ms",
        "op_p90_ms": f"p90 of {n} ops, {n - int(0.9 * n)} above it; "
                     f"raw {1000 * statistics.quantiles(raw, n=10)[8]:.3f} ms",
        "setup_s": f"median of {WORKERS} processes; raw "
                   + ", ".join(f"{part['setup_s']:.3f}" for part in parts) + " s",
        "peak_rss_mb": f"largest ru_maxrss of the {WORKERS} processes",
        "ok_ops_ratio": f"{n - failed} ok / {n} attempted; failed_ops_ratio {failed / n:g}",
    }
    scales = [part["scale"] for part in parts]
    diagnostics = {
        "raw": {"workers": [{k: v for k, v in part.items() if k != "scaled_s"} for part in parts]},
        "calib": {"probe_ms": [p for part in parts for p in part["probe_ms"]],
                  "scale": statistics.median(scales)},
    }
    return n, failed, errors, metrics, bases, diagnostics


# -- traced run -----------------------------------------------------------


def sweep_names():
    """Qualified wrapper name of each verification sweep -> its verify name."""
    import cyclotope.verification as verification

    sweeps = getattr(verification, "_SWEEPS", ())
    names = {f"verification.{fn.__name__}": name for name, fn, _ in sweeps}
    names["verification.sweep_oracle"] = "oracle"
    return names


def traced_run(ct, args, probe):
    from tracer import Tracer

    tracer = Tracer(sweep_names())
    clock = Clock(probe)
    plain = {"ops": 0, "busy": 0.0}
    traced = {"ops": 0, "busy": 0.0}
    first = None
    attempted = failed = 0
    errors = []
    op_id = 0
    start = perf_counter()
    while True:
        for side in (plain, traced):
            workload, warm_error = fresh_workload(ct, args.workload, args.seed)
            if warm_error:
                errors.append(f"warm-up: {warm_error}")
            ops = workload.next_round()
            output_bytes = 0
            if side is traced:
                tracer.install()
            try:
                for op in ops:
                    op_id += 1
                    elapsed, error, result = run_op(ct, workload, op, tracer if side is traced else None, op_id)
                    side["ops"] += 1
                    side["busy"] += elapsed
                    attempted += 1
                    if error:
                        failed += 1
                        errors.append(error)
                    if workload.cli and result is not None:
                        output_bytes += len(result[1].encode())
                    clock.between_ops()
            finally:
                if side is traced:
                    tracer.uninstall()
            if side is traced and first is None:
                first = {"ops": len(ops), "calls": dict(tracer.calls), "counts": dict(tracer.counts),
                         "output_bytes": output_bytes}
                tracer.record = False
        if perf_counter() - start >= args.seconds or perf_counter() - start >= 150:
            break
    clock.between_ops(force=True)
    scale = clock.scale(args.probe_ref_ms)
    ms = 1000 * scale / traced["ops"]
    per_op = first["ops"]
    metrics = {}
    for layer, seconds in tracer.self_s.items():
        metrics[f"{layer}.self_ms_per_op"] = seconds * ms
        metrics[f"{layer}.calls_per_op"] = first["calls"][layer] / per_op
    counts = first["counts"]
    metrics["backend.spectrum_signs.bytes_per_op"] = counts.get("backend.spectrum_signs.bytes", 0) / per_op
    metrics["backend.tally.masks_per_op"] = counts.get("backend.tally.masks", 0) / per_op
    metrics["counting.cells_per_op"] = counts.get("counting.cells", 0) / per_op
    metrics["cli.output_bytes_per_op"] = first["output_bytes"] / per_op
    for spec in SPEC["per_layer"]:
        sweep = spec["name"].removeprefix("verification.sweep.").removesuffix(".ms_per_op")
        if sweep != spec["name"]:
            metrics[spec["name"]] = tracer.sweep_s.get(sweep, 0.0) * ms
    plain_rate = plain["ops"] / plain["busy"]
    traced_rate = traced["ops"] / traced["busy"]
    metrics["trace.overhead_ratio"] = traced_rate / plain_rate
    bases = {m: f"per op over {traced['ops']} traced ops" for m in metrics if m.endswith("ms_per_op")}
    bases.update({m: f"exact, per op over the first traced pass of {per_op} ops" for m in metrics
                  if not m.endswith("ms_per_op")})
    bases["trace.overhead_ratio"] = (
        f"traced {traced_rate:.3f} 1/s ({traced['ops']} ops / {traced['busy']:.3f} s) over "
        f"untraced {plain_rate:.3f} 1/s ({plain['ops']} ops / {plain['busy']:.3f} s)"
    )
    diagnostics = {
        "raw": {"plain": plain, "traced": traced, "first_pass": first},
        "calib": {"probe_ms": [1000 * p for p in clock.probes], "scale": scale},
    }
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    fields = ("op", "span", "parent", "name", "layer", "start", "end")
    span_file.write_text(json.dumps({"fields": fields, "spans": tracer.spans}))
    diagnostics["spans_file"] = str(span_file.relative_to(ROOT))
    return attempted, failed, errors, metrics, bases, diagnostics


# -- reporting ------------------------------------------------------------


def git_commit():
    """Commit of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(ct, args):
    import numpy

    has_compiled = getattr(ct, "has_compiled_kernels", None)
    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "probe_ref_ms": args.probe_ref_ms,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "backend": getattr(ct, "BACKEND", None),
        "has_compiled_kernels": has_compiled() if has_compiled else None,
        "cyclotope_env": {k: v for k, v in os.environ.items() if k.startswith("CYCLOTOPE_")},
    }


def run_one(args):
    ct = import_cyclotope()
    probe = make_probe()
    env = environment(ct, args)
    measure = traced_run if args.trace else end_to_end
    attempted, failed, errors, metrics, bases, diagnostics = measure(ct, args, probe)
    specs = SPEC["per_layer" if args.trace else "end_to_end"]
    result = {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}

    OUT.mkdir(exist_ok=True)
    record = {"env": env, "attempted": attempted, "failed": failed, "errors": errors[:20],
              "metrics": result, **diagnostics}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    scale = diagnostics["calib"]["scale"]
    print(f"calib.scale {scale:.4f} = ref {args.probe_ref_ms} ms / probe median "
          f"{args.probe_ref_ms / scale:.3f} ms over {len(diagnostics['calib']['probe_ms'])} probes")
    for s in specs:
        print(f"{args.workload} {s['name']} {metrics[s['name']]:.6g} {s['unit']}  ({bases[s['name']]})")
    for error in errors[:5]:
        print(f"FAILED: {error}")
    print(f"diagnostics in {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": result}))


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    rows = {}
    correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--probe-ref-ms", str(args.probe_ref_ms),
                 "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(out.stderr)
            lines = out.stdout.splitlines()
            if out.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {out.returncode}")
                correct = False
                continue
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            rows.setdefault(name, {}).update(result["metrics"])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    names = [s["name"] for s in SPEC["end_to_end"] + SPEC["per_layer"]]
    width = max(map(len, names))
    print(f"{'metric':<{width}} {'unit':<6} " + " ".join(f"{n:>16}" for n in rows))
    for s in SPEC["end_to_end"] + SPEC["per_layer"]:
        cells = " ".join(f"{rows[n][s['name']]['value']:>16.6g}" if s["name"] in rows[n] else f"{'-':>16}"
                         for n in rows)
        print(f"{s['name']:<{width}} {s['unit']:<6} {cells}")
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    command = SPEC["command"]
    parser.add_argument("--probe-ref-ms", type=float,
                        default=float(command[command.index("--probe-ref-ms") + 1]),
                        help="nominal probe time (default from BENCHMARK.json); "
                             "timings are scaled by it over the probe median")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        worker(args)
    elif args.workload == "all":
        return run_all(args)
    else:
        run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
