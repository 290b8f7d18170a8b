"""Run the benchmark on several workloads and seeds; print every metric.

    python3 bench/report.py                          # all workloads, seed 1
    python3 bench/report.py --workloads series --seeds 1 2 3 4 5

Each run is a separate process (``bench/run.py``).  For every workload
the script prints each metric by name and unit: the value for one seed,
or the median and the quartile spread (Q3 - Q1) / median over several.
It exits with status 1 when a run fails or reports ``correct: false``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    if len(values) == 1:
        return f"{values[0]:.6g}"
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return f"median {med:.6g}  spread {spread:.3f}  (n={len(values)})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", nargs="+", type=int, default=[0, 1])
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads:
        for trace in args.trace:
            runs = [run_once(workload, seed, args.seconds, trace) for seed in args.seeds]
            if any(r is None or not r["correct"] for r in runs):
                ok = False
            runs = [r for r in runs if r is not None]
            if not runs:
                print(f"{workload} trace={trace}: no result")
                continue
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"{workload} trace={trace}: correct={all(r['correct'] for r in runs)} "
                  f"failed {failed} of {attempted}")
            for name, metric in runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs]
                print(f"  {name:48s} {metric['unit']:8s} {summary(values)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
