"""Answer checks against the reference table recorded in reference.json.

A parameter point passes when it raised no error, its `C*` and `d` match the
reference for its (domain, p), and its outcome matches the reference:

- decay points complete, the certificate reports no violation, the fitted
  rate is at least the certified one with a good fit, `beta1 E <= L <= beta2 E`
  holds, and the energy drift is at most 1.05x the reference (one-sided, so a
  more accurate integrator passes);
- blow-up points blow up with a finite `T_max` estimate within 1% of the
  reference (the dt-refinement spread of the estimate is about 0.3%).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

CONSTANTS_RTOL = 1e-9
FIT_R2_MIN = 0.98
DRIFT_FACTOR = 1.05
T_MAX_RTOL = 0.01


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def constants_key(domain: str, p: float) -> str:
    return f"{domain}|p={float(p)!r}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_point(answer: dict, reference: dict) -> list[str]:
    """Reasons the answer fails; an empty list means it passes."""
    if answer.get("error"):
        return [answer["error"]]
    expected = reference["points"].get(answer["key"])
    if expected is None:
        return [f"no reference for point {answer['key']!r}"]
    problems = []
    consts = reference["constants"][constants_key(answer["domain"], answer["p"])]
    for name in ("c_star", "d"):
        if not _rel(answer[name], consts[name]) <= CONSTANTS_RTOL:
            problems.append(f"{name}={answer[name]!r}, reference {consts[name]!r}")
    if answer["outcome"] != expected["outcome"]:
        return problems + [f"outcome {answer['outcome']!r}, "
                           f"reference {expected['outcome']!r}"]
    if expected["outcome"] == "completed":
        if answer["violated_at"] is not None:
            problems.append(f"decay certificate violated at t={answer['violated_at']}")
        if not answer["xi_fitted"] >= answer["xi"]:
            problems.append(f"xi_fitted={answer['xi_fitted']} < xi={answer['xi']}")
        if not answer["fit_r2"] >= FIT_R2_MIN:
            problems.append(f"fit_r2={answer['fit_r2']} < {FIT_R2_MIN}")
        if answer["equivalence_passed"] is not True:
            problems.append("beta1 E <= L <= beta2 E failed")
        if not answer["energy_drift"] <= DRIFT_FACTOR * expected["energy_drift"]:
            problems.append(f"energy_drift={answer['energy_drift']}, reference "
                            f"{expected['energy_drift']}")
    else:
        est = answer["t_max_estimate"]
        if est is None or not math.isfinite(est):
            problems.append(f"t_max_estimate={est!r} is not finite")
        elif not _rel(est, expected["t_max_estimate"]) <= T_MAX_RTOL:
            problems.append(f"t_max_estimate={est!r}, reference "
                            f"{expected['t_max_estimate']!r}")
    return problems


def check_pass(answers: list[dict], reference: dict,
               workload: str) -> tuple[int, list[str]]:
    """Points attempted in one pass, and one failure message per failed point.

    Every reference point of the workload must be answered: a missing one,
    for example after a crash, counts as failed.
    """
    by_key = {answer.get("key"): answer for answer in answers}
    crash = by_key.pop(None, None)
    failures = []
    keys = [key for key in reference["points"] if key.startswith(workload + "/")]
    for key in keys:
        answer = by_key.pop(key, None)
        if answer is None:
            problems = [crash["error"] if crash else "no answer"]
        else:
            problems = check_point(answer, reference)
        if problems:
            failures.append(f"{key}: {'; '.join(problems)}")
    failures.extend(f"{key}: not in the reference" for key in by_key)
    return len(keys) + len(by_key), failures
