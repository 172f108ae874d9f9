"""Run one mrwb benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload desk-roundtrip --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: the package is imported from the
checkout's src/ directory and nowhere else, and a checkout without it
exits with status 1 before measuring anything.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones.  The result is also
written to .bench_out/ at the root of the checkout, next to the cProfile
dump of a traced run.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import json
import os
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def _args(workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _median_ms(samples) -> float:
    return 1e3 * statistics.median(samples)


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "mrwb", "__init__.py")):
        sys.exit(f"perfbench: no mrwb package under {SRC}")
    sys.path.insert(0, SRC)
    import workloads

    args = _args(list(workloads.WORKLOADS))

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T_START
    workload.make_inputs()

    rec = workloads.Recorder()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        import layers

        metrics = layers.traced_run(workload, rec, args.seed, stem + ".prof")
    else:
        start = time.perf_counter()
        while True:
            rec.new_round()
            workload.run_round(rec)
            if time.perf_counter() - start >= args.seconds:
                break
        metrics = {
            "setup_s": (setup_s, "s"),
            "sign_ms": (_median_ms(rec.best["sign"]), "ms"),
            "open_ms": (_median_ms(rec.best["open"]), "ms"),
            "op_ms": (1e3 * workloads.op_seconds(rec.best), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    problems = [p for p in workload.final_checks() if p]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems and rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    with open(stem + ".json", "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
