"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload W --seed S [--seconds N] [--trace 0|1] [--smoke] [--out-dir D]

Inputs come from the seed; the program is driven only through its public
API and CLI; answers are checked against an oracle.  `--trace 0` prints
the end-to-end metrics of BENCHMARK.json, `--trace 1` repeats the
workload with the benchmark's own spans around every layer and prints
the per-layer metrics.  Every metric is written with its unit, median,
quartiles and sample count to `bench/out/W-seedS-{untraced,traced}.json`;
the last line of standard output is the one JSON object the driver
reads.  `--smoke` runs the same code on T5.I3.D2K.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SPEC_FILE = REPO_ROOT / "BENCHMARK.json"

#: One BLAS thread in this process and, by inheritance, in every process it
#: starts: unpinned OpenBLAS burned 1.75 cores for one thread's throughput
#: on the 2-core host.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="T5.I3.D2K everywhere; with no --seconds, 2 s")
    parser.add_argument("--out-dir", type=Path, default=BENCH_DIR / "out",
                        help="where result files go (compare.py reads two such sets)")
    return parser.parse_args(argv)


def print_table(title, names, metrics, units):
    print(title)
    print(f"  {'metric':<38} {'value':>14} {'unit':<8} {'q1':>12} {'q3':>12} {'n':>6}")
    for name in names:
        m = metrics[name]
        print(f"  {name:<38} {m['value']:>14.6g} {units[name]:<8} "
              f"{m['q1']:>12.6g} {m['q3']:>12.6g} {m['n']:>6}")


def main(argv=None):
    with open(SPEC_FILE, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"error: {REPO_ROOT / 'src' / 'repro'} not found; the benchmark "
              "runs from a checkout of the repository", file=sys.stderr)
        return 3
    seconds = args.seconds
    if seconds is None:
        seconds = 2.0 if args.smoke else float(spec["run_seconds"])

    os.environ.update(THREAD_ENV)  # before numpy is imported
    sys.path.insert(0, str(REPO_ROOT / "src"))

    import harness
    import trace
    import workloads

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec[kind]]

    out_dir = args.out_dir.resolve()
    work_dir = out_dir / f"tmp-{args.workload}-seed{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    recorder = trace.Recorder()
    recorder.enabled = False
    ctx = workloads.Context(
        seed=args.seed, seconds=seconds, trace=bool(args.trace), smoke=args.smoke,
        work_dir=work_dir, recorder=recorder, host=harness.HostProbe(),
    )
    spinners = [
        subprocess.Popen([sys.executable, str(BENCH_DIR / "keep_awake.py"), str(cpu)])
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    try:
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        for spinner in spinners:
            spinner.terminate()
        for spinner in spinners:
            spinner.wait()
        recorder.unwrap_all()
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = dict(result["metrics"])
    metrics.update(ctx.host.metrics())
    missing = [name for name in spec["end_to_end"] if name["name"] not in metrics]
    if missing:
        print(f"error: workload did not produce {missing}", file=sys.stderr)
        return 4
    # A layer that did no work on this workload reads 0 with n = 0.
    for name in wanted:
        metrics.setdefault(name, harness.single(0.0, n=0))
    correct = result["failed"] == 0 and result["valid"]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "smoke": args.smoke,
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "layer_sum_valid": result["valid"],
        "metrics": {name: dict(metrics[name], unit=units[name])
                    for name in metrics if name in units},
    }
    suffix = "traced" if args.trace else "untraced"
    out_path = out_dir / f"{args.workload}-seed{args.seed}-{suffix}.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    shown = [m["name"] for m in spec["end_to_end"]] + (wanted if args.trace else [])
    print_table(f"{args.workload} seed={args.seed} seconds={seconds:g} {suffix}"
                f" -> {out_path}", shown, metrics, units)
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metrics[name]["value"], "unit": units[name]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
