"""Record reference.json: the answers the benchmark checks against.

    python3 perfbench/make_reference.py [--seeds 0 1 7]

Runs one pass of every workload per seed.  The first seed's answers become
the reference; the other seeds must agree with them within the checker's
tolerances, since the seed feeds only the `C*` multistart.  Re-record only
when a change is meant to alter the answers, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import platform

from worker import ROOT, import_program


def record(check, workload, seed: int) -> tuple[dict, dict]:
    constants, points = {}, {}
    for answer in workload.collect(workload.run(seed)).points:
        if answer.get("error"):
            raise SystemExit(f"{answer['key']}: {answer['error']}")
        key = check.constants_key(answer["domain"], answer["p"])
        constants[key] = {"c_star": answer["c_star"], "d": answer["d"]}
        entry = {"outcome": answer["outcome"]}
        if answer["outcome"] == "completed":
            entry["energy_drift"] = answer["energy_drift"]
        else:
            entry["t_max_estimate"] = answer["t_max_estimate"]
        points[answer["key"]] = entry
    return constants, points


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7])
    args = ap.parse_args()
    import_program()
    import numpy
    import scipy

    import check
    import workloads

    ref = {"recorded_with": {"seed": args.seeds[0],
                             "python": platform.python_version(),
                             "numpy": numpy.__version__, "scipy": scipy.__version__},
           "constants": {}, "points": {}}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runners = [workloads.make(w["name"], ROOT) for w in spec["workloads"]]
    try:
        for w in runners:
            w.setup()
            constants, points = record(check, w, args.seeds[0])
            ref["constants"].update(constants)
            ref["points"].update(points)
        for seed in args.seeds[1:]:
            for w in runners:
                _, failures = check.check_pass(w.collect(w.run(seed)).points,
                                               ref, w.name)
                if failures:
                    raise SystemExit(f"seed {seed} disagrees: {failures}")
    finally:
        for w in runners:
            w.cleanup()
    check.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {check.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
