"""dampedwave benchmark: time to answer on one workload, with every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dampedwave checkout.  Workloads: interval-decay,
rectangle-decay, cli-sweep (see perfbench/README.md).

With `--trace 0` it prints the end-to-end metrics: `setup_s` (median of
several fresh interpreters importing the package and building the inputs),
`wall_s` (median pass wall time, in a fresh workload process, untraced) and
`peak_rss_mb` (that process's ru_maxrss).  Both times are scaled to the
reference speed of the host (see `worker.calibrate`); the raw times are
printed too.  With `--trace 1` it prints the
per-layer metrics of a traced run instead.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
lines before it record the machine, the versions and the seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import calibrate, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_SAMPLES = 3  # timed fresh interpreters, after one untimed warm-up
DEADLINE_S = 170.0  # the whole run, set-up included
HOLDOUT_SEED = 90210  # kept unused until a later change must confirm a claim


def machine_record() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(),
            "blas_threads_env": {key: os.environ.get(key) for key in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}}


def source_record() -> dict:
    """The git commit when the checkout is a repository, and a source digest."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def time_setup(workload: str, seed: int, deadline: float) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    code = proc.returncode
    if line.strip() != "ready" or code != 0:
        sys.exit(f"set-up of {workload} failed (exit code {code})")
    return elapsed


def run_worker(args, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"{args.workload} did not finish before the deadline; "
                 "every point counts as failed")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{args.workload} crashed (exit code {proc.returncode}); "
                 "every point counts as failed")
    return json.loads(lines[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    machine = machine_record()
    if not (ROOT / "src" / "dampedwave" / "__init__.py").is_file():
        sys.exit(f"no src/dampedwave under {ROOT}: not a dampedwave checkout")

    setups, scaled_setups = [], []
    if not args.trace:
        time_setup(args.workload, args.seed, deadline)  # warm the bytecode cache
        cal = calibrate()
        for _ in range(SETUP_SAMPLES):
            setups.append(time_setup(args.workload, args.seed, deadline))
            cal_before, cal = cal, calibrate()
            scaled_setups.append(scaled(setups[-1], cal_before, cal))
    result = run_worker(args, deadline)

    record = {"workload": args.workload, "seed": args.seed,
              "holdout_seed": HOLDOUT_SEED, "seconds": args.seconds,
              "trace": args.trace, "pass_seeds": result["pass_seeds"],
              **machine, **result["versions"], **source_record()}
    print("record " + json.dumps(record))
    attempted, failed = result["attempted"], result["failed"]
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    walls = result["walls"]
    print(f"passes: {len(walls)} untraced"
          + (f", {len(result['traced_walls'])} traced" if args.trace else ""))
    print(f"{'failed_frac':<32} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} points)")

    if args.trace:
        import tracing
        values = result["layers"]
        traced_wall = values["traced_wall_s"]
        print(f"shares of the traced pass wall time ({traced_wall:.4f} s):")
        for name in sorted(tracing.SHARES, key=lambda n: -values[n]):
            print(f"  {name:<30} {values[name] / traced_wall:>8.1%}")
    else:
        values = {"setup_s": statistics.median(scaled_setups),
                  "wall_s": statistics.median(result["scaled_walls"]),
                  "peak_rss_mb": result["maxrss_kib"] / 1024.0}
        for name, raw, at_ref in (("setup", setups, scaled_setups),
                                  ("pass wall", walls, result["scaled_walls"])):
            print(f"{name} times (s), raw: {' '.join(f'{x:.4f}' for x in raw)}")
            print(f"{name} times (s), at reference speed: "
                  f"{' '.join(f'{x:.4f}' for x in at_ref)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
