"""One workload process: set up, run timed passes, check every answer.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

`run.py` starts this as a fresh interpreter.  With `--setup-only` it prints
`ready` once the workload's inputs are built and exits; `run.py` times that
as the set-up.  Otherwise it prints one JSON line with the pass wall times,
the checked answers and, with `--trace 1`, the per-layer metrics.

Passes run until `--seconds` would be exceeded by one more pass of the
median length, with at least one pass.  Pass k uses the `C*` multistart seed
`pass_seeds(seed)[k]`.  With tracing, passes come in pairs with the same
seed, untraced then traced, and the pair's ratio gives the overhead.

The host this runs on changes speed by up to 1.5x in phases of seconds to
minutes.  `calibrate` times a fixed loop before the first pass and after each
one; a pass's time is also reported scaled by CAL_REF_S over the mean of the
two calibrations around it, which is its time at the reference speed.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CAL_LOOPS = 1_000_000
CAL_REF_S = 0.08  # calibrate() on the reference machine (README) at full speed


def pass_seeds(seed: int, count: int = 1000) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, which tracks the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for j in range(CAL_LOOPS):
        acc += j * j % 7
    return time.perf_counter() - t0


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """A time measured between two calibrations, at the reference speed."""
    return seconds * CAL_REF_S / (0.5 * (cal_before + cal_after))


def import_program():
    """Import the package from the checkout's source tree, nowhere else."""
    src = ROOT / "src"
    if not (src / "dampedwave" / "__init__.py").is_file():
        sys.exit(f"{src}/dampedwave not found: run from a dampedwave checkout")
    sys.path.insert(0, str(src))
    import dampedwave
    if Path(dampedwave.__file__).resolve().parent != (src / "dampedwave").resolve():
        sys.exit(f"imported dampedwave from {dampedwave.__file__}, not {src}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_program()
    import workloads
    workload = workloads.make(args.workload, ROOT)
    workload.setup()
    if args.setup_only:
        print("ready", flush=True)
        return

    import check
    import tracing
    reference = check.load_reference()
    tracer = tracing.Tracer() if args.trace else None
    seeds = pass_seeds(args.seed)
    walls, scaled_walls, traced_walls = [], [], []
    layer_passes, advance_us = [], []
    attempted, failures = 0, []
    start = time.perf_counter()
    cal = calibrate()
    try:
        for k in range(len(seeds)):
            traced = tracer is not None and k % 2 == 1
            seed = seeds[k // 2] if tracer is not None else seeds[k]
            if traced:
                tracer.reset()
                tracer.install()
            try:
                t0 = time.perf_counter()
                raw = workload.run(seed)
                wall = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            cal_before, cal = cal, calibrate()
            collected = workload.collect(raw)
            n, failed = check.check_pass(collected.points, reference, args.workload)
            attempted += n
            failures += failed
            if traced:
                traced_walls.append(wall)
                layer_passes.append(tracer.pass_metrics(collected.bytes_written))
                advance_us.extend(x * 1e6 for x in tracer.advance_s)
            else:
                walls.append(wall)
                scaled_walls.append(scaled(wall, cal_before, cal))
            elapsed = time.perf_counter() - start
            typical = statistics.median(walls + traced_walls)
            if tracer is not None and k % 2 == 0:
                continue  # finish the pair
            if elapsed + typical * (2 if tracer is not None else 1) > args.seconds:
                break
    finally:
        workload.cleanup()

    result = {
        "workload": args.workload, "seed": args.seed,
        "pass_seeds": seeds[:len(walls)],
        "walls": walls, "scaled_walls": scaled_walls,
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": versions(),
    }
    if tracer is not None:
        result["traced_walls"] = traced_walls
        result["layers"] = layer_metrics(layer_passes, advance_us, walls, traced_walls)
    print(json.dumps(result), flush=True)


def layer_metrics(passes: list[dict], advance_us: list[float],
                  walls: list[float], traced_walls: list[float]) -> dict:
    """Per-pass means over the traced passes, plus the pooled percentiles."""
    out = {name: statistics.fmean(p[name] for p in passes) for name in passes[0]}
    if len(advance_us) >= 2:
        cuts = statistics.quantiles(advance_us, n=100, method="inclusive")
        out["solver.advance_us.p50"] = statistics.median(advance_us)
        out["solver.advance_us.p99"] = cuts[98]
    else:
        out["solver.advance_us.p50"] = out["solver.advance_us.p99"] = 0.0
    out["trace.overhead_frac"] = statistics.median(
        t / u for t, u in zip(traced_walls, walls)) - 1.0
    out["traced_wall_s"] = statistics.fmean(traced_walls)
    return out


def versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {key: blas.get(key) for key in
                     ("name", "version", "openblas configuration")}}


if __name__ == "__main__":
    main()
