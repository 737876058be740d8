"""stochfeas benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload {sgd,signal,image,cli_signal} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the working directory; nothing is
installed.  One run sets up the workload several times (``setup_s``), then
runs seeded operations for ``--seconds`` seconds and checks every output.
Timings are medians over operations, so a burst of load on a shared machine
moves a few samples rather than the whole figure.

Every time-valued metric is scaled to a reference machine speed by the
calibration loop of ``calibration.py``, timed right after each operation,
each set-up repetition and, on cli_signal, each run_block call.  Raw values
are kept in the results record.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced and traced operations, in blocks of one rotation
over the workload's inputs, and reports the per-layer metrics; the gap
between the two iteration rates is reported as ``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it record the machine, the digest of the first operations' outputs and the
failure share.  A full record goes to ``.perfbench/results/`` and, for
traced runs, the spans to ``.perfbench/spans/``.
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from calibration import slowdown_after  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 9
# Below this slowdown the machine runs in its transient fast mode (0.5-0.7
# against 0.8-1.15 otherwise); see Workload.drop_fast_mode.
FAST_MODE_SLOWDOWN = 0.75


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(module: str) -> tuple:
    """Median (raw, scaled) wall time of importing ``module`` afresh, numpy loaded.

    The package's modules are dropped from ``sys.modules`` before each
    import; the last import stays live.  numpy's own import is left out: no
    change to this repository moves it, and it is the noisiest part.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "stochfeas" or m.startswith("stochfeas.")]:
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module(module)
        elapsed = time.perf_counter() - start
        raw.append(elapsed)
        scaled.append(elapsed / slowdown_after(elapsed))
    return statistics.median(raw), statistics.median(scaled)


def git_commit() -> str:
    """HEAD of a git checkout in the working directory, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine(np_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np_version, "commit": git_commit()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stochfeas" / "__init__.py").is_file():
        print(f"perfbench: no stochfeas package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # timed before anything else imports the package: (raw, scaled)
    import_s = import_seconds("stochfeas.cli" if args.workload == "cli_signal" else "stochfeas")

    import stochfeas
    if Path(stochfeas.__file__).resolve().parent != (SRC / "stochfeas").resolve():
        print(f"perfbench: imported stochfeas from {stochfeas.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    layer_names = [m[0] for m in tracing.LAYER_METRICS]
    if args.trace and [m["name"] for m in wanted] != layer_names:
        print("perfbench: per_layer metrics of BENCHMARK.json and tracing.LAYER_METRICS differ",
              file=sys.stderr)
        return 2

    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    tracer = tracing.Tracer() if args.trace else None
    try:
        record = measure(workload, args, tracer, import_s)
    finally:
        workload.close()

    if args.trace:
        values = tracing.layer_metrics(
            tracer, record["traced_ops"], record["untraced_rate"], record["traced_rate"],
            record["op_wall_s"] if workload.name == "cli_signal" else 0.0,
            record["bytes_per_op"], workload.workers, record["slowdown"])
    else:
        values = record["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  machine=machine(np.__version__), metrics=metrics)
    if args.trace:
        record["layer_predictions"] = {name: moves for name, _, _, moves in tracing.LAYER_METRICS}
        record["block_accounting_us_per_iter"] = tracing.block_accounting(tracer, record["slowdown"])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / "spans" / f"{stem}.npz")

    m = record["machine"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} numpy={m['numpy']} "
          f"commit={m['commit']}")
    print(f"digest sha256 (first {record['digest_ops']} ops, no elapsed columns): {record['digest']}")
    p90 = record["op_s_p90"]
    print(f"fail_frac={record['fail_frac']} ({record['failed']}/{record['attempted']} ops), "
          f"timed ops={record['timed_ops']}, op samples={record['op_samples']}, op_s_p90="
          + ("n/a (fewer than 100 samples)" if p90 is None else f"{p90} s")
          + f", setup: import {record['import_s']:.4f} s + "
          f"construct {record['construct_s']:.4f} s (raw), median machine slowdown "
          f"{record['slowdown']:.4f}")
    if args.trace:
        print(f"tracing overhead: untraced {record['untraced_rate']:.1f} iters/s, "
              f"traced {record['traced_rate']:.1f} iters/s")
        parts = record["block_accounting_us_per_iter"]
        if parts:
            print("run_block self-time accounting, us per block iteration: " + ", ".join(
                f"{name} {value:.2f}" for name, value in parts.items()))
    for problem in record["problems"][:5]:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


def measure(workload, args, tracer, import_s) -> dict:
    """Set up, run the timed phase, and summarise it."""
    construct, construct_scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        if tracer is None:
            state = workload.construct()
        else:
            with tracer.installed():
                state = workload.construct()
        elapsed = time.perf_counter() - start
        construct.append(elapsed)
        construct_scaled.append(elapsed / slowdown_after(elapsed))
    construct_s = statistics.median(construct)
    workload.prepare(state)
    if workload.warmup:
        workload.finish(0, workload.run(0))

    # operations alternate untraced / traced in blocks of one rotation
    period = workload.variants
    min_ops = max(workload.digest_ops, 2 * period if tracer else 0)
    timings, raw_rates, slowdowns, bytes_written, digests, problems = ([] for _ in range(6))
    attempted = failed = traced_ops = 0
    phase_start = time.perf_counter()
    k = 0
    while k < min_ops or time.perf_counter() - phase_start < args.seconds:
        traced = tracer is not None and (k // period) % 2 == 1
        attempted += 1
        traced_ops += traced
        workload.calibrate_inside = not traced
        try:
            if traced:
                tracer.op = k
                with tracer.installed():
                    start = time.perf_counter()
                    raw = workload.run(k)
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                raw = workload.run(k)
                elapsed = time.perf_counter() - start
            outcome = workload.finish(k, raw)
        except Exception as exc:  # an operation that raises counts as failed
            failed += 1
            problems.append(f"op {k}: {type(exc).__name__}: {exc}")
            k += 1
            continue
        if outcome.problems:
            failed += 1
            problems.extend(f"op {k}: {p}" for p in outcome.problems)
        elapsed -= outcome.calibration_s
        slowdown = statistics.median(outcome.slowdowns + [slowdown_after(elapsed)])
        slowdowns.append(slowdown)
        if traced:
            bytes_written.append(outcome.bytes_written)
        else:
            raw_rates.append(outcome.iterations / elapsed)
        timings.append((traced, slowdown, outcome.iterations / elapsed * slowdown,
                        outcome.samples or [elapsed / slowdown], elapsed / slowdown))
        if k < workload.digest_ops:
            digests.append(outcome.digest)
        k += 1

    def median(values):
        return float(np.median(values)) if values else 0.0

    if workload.drop_fast_mode and any(t[1] >= FAST_MODE_SLOWDOWN for t in timings):
        timings = [t for t in timings if t[1] >= FAST_MODE_SLOWDOWN]
    rates = {traced: [t[2] for t in timings if t[0] == traced] for traced in (False, True)}
    samples = [x for t in timings if not t[0] for x in t[3]]
    walls = [t[4] for t in timings if not t[0]]
    slowdown = median(slowdowns)
    return {
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "problems": problems, "op_samples": len(samples), "timed_ops": len(timings),
        "digest_ops": workload.digest_ops,
        "digest": hashlib.sha256(b"".join(digests)).hexdigest(),
        "import_s": import_s[0], "construct_s": construct_s, "slowdown": slowdown,
        "untraced_rate": median(rates[False]), "traced_rate": median(rates[True]),
        "traced_ops": traced_ops, "op_wall_s": median(walls),
        # reported, not gated: 13-26% run-to-run spread, and sgd and
        # cli_signal runs hold fewer than 100 operations
        "op_s_p90": float(np.percentile(samples, 90)) if len(samples) >= 100 else None,
        "bytes_per_op": median(bytes_written),
        "raw": {"iters_per_s": median(raw_rates), "op_rates": raw_rates,
                "slowdowns": slowdowns, "setup_s": import_s[0] + construct_s},
        "end_to_end": {
            "iters_per_s": median(rates[False]),
            "op_s_p50": float(np.percentile(samples, 50)) if samples else 0.0,
            "setup_s": import_s[1] + statistics.median(construct_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


if __name__ == "__main__":
    sys.exit(main())
