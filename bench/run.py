"""gkz benchmark: one seeded workload, closed loop, oracle-checked.

    python3 bench/run.py --workload orthant --seed 1 --seconds 10 --trace 0

Runs whole passes of the workload's seeded operations, one at a time,
until --seconds have elapsed (at least one pass), then checks every
report against its mpmath oracle.  With --trace 0 the last line of
stdout is the JSON result with the end-to-end metrics; with --trace 1 the
same operations are replayed under the layer trace, their canonical JSON
must match the untraced run byte for byte, and the result carries the
per-layer metrics.  Lines before the last describe the run (versions,
input sizes, tail percentile and sample counts).

gkz is imported from src/ next to this directory; the run exits with
status 2, printing no result, when it is missing.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 3
# below this many reports no percentile above the median has ten reports
# beyond it, and the tail is the maximum
TAIL_MIN_REPORTS = 21


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("orthant", "contour", "groups"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload, seed):
    """In this fresh process: import gkz, build entries and charts."""
    start = time.perf_counter()
    import gkz

    imported = time.perf_counter()
    import workloads  # the benchmark's own code, not timed

    wl = workloads.WORKLOADS[workload](gkz, seed)
    begin = time.perf_counter()
    wl.setup()
    return (imported - start) + (time.perf_counter() - begin)


def measure_setup(args):
    """Median set-up time over SETUP_RUNS fresh processes."""
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def run_ops(ops, cli, gkz_error):
    """Run each op once: (op, canonical JSON or None, error or None, seconds)."""
    out = []
    for op in ops:
        start = time.perf_counter()
        try:
            text, error = cli.canonical_json(op.run()), None
        except gkz_error as exc:
            text, error = None, f"{type(exc).__name__}: {exc}"
        out.append((op, text, error, time.perf_counter() - start))
    return out


def closed_loop(wl, seconds, cli, gkz_error):
    """Whole passes, one op at a time, until `seconds` have elapsed."""
    results = []
    start = time.perf_counter()
    while True:
        results += run_ops(wl.next_pass(), cli, gkz_error)
        if time.perf_counter() - start >= seconds:
            return results


def check_reports(results):
    """Oracle checks of every report.

    An operation fails when it raises a GkzError or when a value of its
    report misses its oracle by more than the report claims.  Returns the
    failed count, the digits of the values of completed operations, the
    digits of every value checked, and the misses.
    """
    failed, kept, every, misses = 0, [], [], []
    for op, text, error, _ in results:
        if text is None:
            failed += 1
            continue
        checks = op.checks(json.loads(text))
        digits = [c.digits for c in checks]
        every += digits
        missed = [c for c in checks if c.missed]
        if not missed:
            kept += digits
            continue
        failed += 1
        misses.append({
            "op": op.label,
            "worst_rel_error": max(
                abs(c.value - c.oracle) / max(abs(c.oracle), 1e-300)
                for c in missed),
        })
    return failed, kept, every, misses


def tail(latencies):
    """(value, percentile): the highest percentile with ten reports beyond
    it, or the maximum when there are too few reports for one above the
    median."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < TAIL_MIN_REPORTS:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(results, failed, digits, setup_s, peak_rss_mb):
    """End-to-end metrics as {name: (value, unit)}, and the tail's basis."""
    done = [r[3] for r in results if r[1] is not None]
    busy = sum(r[3] for r in results)
    tail_s, tail_pct = tail(done) if done else (busy, 100.0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "reports_per_s": (len(done) / busy, "1/s"),
        "report_p50_s": (statistics.median(done) if done else busy, "s"),
        "report_tail_s": (tail_s, "s"),
        "digits_min": (min(digits) if digits else 0.0, "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, {"percentile": tail_pct, "reports": len(done)}


def layer_metrics(tracer, results, replay):
    """Per-layer metrics of the traced replay, as {name: (value, unit)}."""
    layers = tracer.layer_metrics()
    sizes = [len(r[1].encode()) for r in results if r[1] is not None]
    layers["cli.report_bytes"] = (statistics.mean(sizes) if sizes else 0.0, "bytes")
    layers["trace.overhead_ratio"] = (
        sum(r[3] for r in replay) / sum(r[3] for r in results), "1")
    return layers


def environment():
    import mpmath
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        sha = sha.stdout.strip() or None
    except OSError:
        sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loop": "closed, 1 client, 1 process",
    }


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "gkz" / "__init__.py").is_file():
        print(f"error: no gkz sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    setup_s = samples = None
    if not args.trace:
        setup_s, samples = measure_setup(args)

    import gkz
    import gkz.cli
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](gkz, args.seed)
    wl.setup()
    wl.prepare()
    results = closed_loop(wl, args.seconds, gkz.cli, gkz.GkzError)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "sizes": wl.sizes(), **environment()}
    correct = True
    if args.trace:
        with tracing.Tracer() as tracer:
            replay = run_ops([r[0] for r in results], gkz.cli, gkz.GkzError)
        mismatched = [a[0].label for a, b in zip(results, replay)
                      if (a[1], a[2]) != (b[1], b[2])]
        correct = not mismatched
        record["trace_mismatches"] = mismatched
    failed, digits, digits_all, misses = check_reports(results)
    attempted = len(results)
    record["oracle_misses"] = misses
    record["failed_ratio"] = failed / attempted
    record["digits_min_all"] = min(digits_all, default=0.0)
    by_label = {}
    for op, text, _, seconds in results:
        by_label.setdefault(op.label, []).append(seconds)
    record["seconds_by_op"] = {k: [round(statistics.median(v), 6), len(v)]
                               for k, v in sorted(by_label.items())}
    record["errors"] = sorted({r[2].split(":")[0] for r in results if r[2]})

    if args.trace:
        layers = layer_metrics(tracer, results, replay)
        record["layer_share_of_traced_time"] = _layer_shares(
            tracer, sum(r[3] for r in replay))
    else:
        layers, record["tail"] = end_to_end(results, failed, digits, setup_s, peak_rss_mb)
        record["setup_samples_s"] = samples
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
    print("# run " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_shares(tracer, traced_total):
    """Self time per module, as a share of the traced operations' time."""
    _, own, _ = tracer.self_times()
    shares = {}
    for name, seconds in own.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + seconds
    return {k: round(v / traced_total, 4) for k, v in sorted(shares.items())}


if __name__ == "__main__":
    sys.exit(main())
