"""The answer checker must fail wrong answers.

    python3 -m pytest perfbench/test_check.py
"""

import math

import check

REF = check.load_reference()
DECAY = "interval-decay/p4_om1_mu1"
BLOWUP = "cli-sweep/unstable_0.9_om0"


def answer(key: str, **changes) -> dict:
    """An answer that matches the reference, with some fields changed."""
    expected = REF["points"][key]
    rec = {"key": key, "domain": "interval:1.0:63", "p": 4.0,
           **REF["constants"][check.constants_key("interval:1.0:63", 4.0)],
           "outcome": expected["outcome"], "energy_drift": None,
           "t_max_estimate": None, "xi": None, "xi_fitted": None,
           "fit_r2": None, "violated_at": None, "equivalence_passed": None}
    if expected["outcome"] == "completed":
        rec.update(energy_drift=expected["energy_drift"], xi=0.0357,
                   xi_fitted=1.98, fit_r2=0.9998, equivalence_passed=True)
    else:
        rec.update(t_max_estimate=expected["t_max_estimate"])
    rec.update(changes)
    return rec


def test_reference_answers_pass():
    assert check.check_point(answer(DECAY), REF) == []
    assert check.check_point(answer(BLOWUP), REF) == []


def test_more_accurate_integration_passes():
    drift = REF["points"][DECAY]["energy_drift"]
    assert check.check_point(answer(DECAY, energy_drift=0.5 * drift), REF) == []


def test_perturbed_c_star_fails():
    c_star = answer(DECAY)["c_star"]
    assert check.check_point(answer(DECAY, c_star=c_star * (1 + 1e-8)), REF)


def test_violated_certificate_fails():
    assert check.check_point(answer(DECAY, violated_at=3.25), REF)
    assert check.check_point(answer(DECAY, xi_fitted=0.01), REF)
    assert check.check_point(answer(DECAY, equivalence_passed=False), REF)


def test_wrong_outcome_kind_fails():
    assert check.check_point(answer(DECAY, outcome="blew_up"), REF)
    assert check.check_point(answer(DECAY, outcome="monitor_violation"), REF)
    assert check.check_point(answer(BLOWUP, outcome="completed"), REF)


def test_wrong_or_missing_blowup_time_fails():
    t_max = REF["points"][BLOWUP]["t_max_estimate"]
    assert check.check_point(answer(BLOWUP, t_max_estimate=1.02 * t_max), REF)
    assert check.check_point(answer(BLOWUP, t_max_estimate=math.inf), REF)
    assert check.check_point(answer(BLOWUP, t_max_estimate=None), REF)


def test_larger_energy_drift_fails():
    drift = REF["points"][DECAY]["energy_drift"]
    assert check.check_point(answer(DECAY, energy_drift=1.1 * drift), REF)


def test_crash_fails_every_point():
    attempted, failures = check.check_pass(
        [{"key": None, "error": "exit code 2"}], REF, "cli-sweep")
    assert attempted == 8
    assert len(failures) == 8
