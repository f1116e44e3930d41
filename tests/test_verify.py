import json

import numpy as np
import pytest

from rzlab import verify
from rzlab.grid import GridSpec


def small_cfg(**kw):
    base = dict(d=1, n=16, R=4.0, trials=12, theorem_trials=12, seed=77)
    base.update(kw)
    return verify.RunConfig(**base)


def test_trial_family_counts_and_meanzero():
    g = GridSpec(2, 16, 4.0)
    rng = verify.rng_for(1, "X")
    fam = verify.trial_family(g, rng, 20, mean_zero=True)
    assert len(fam) == 20
    for f in fam:
        assert abs(f.values.mean()) <= 1e-12
        assert np.linalg.norm(f.values) == pytest.approx(1.0)


def test_nonneg_trials_are_nonneg():
    g = GridSpec(2, 16, 4.0)
    rng = verify.rng_for(2, "Y")
    for f in verify.nonneg_trials(g, rng, 5):
        assert f.values.min() >= 0.0


def test_bandlimited_spectrum_is_limited():
    g = GridSpec(1, 32, 4.0)
    f = verify.bandlimited_field(g, verify.rng_for(3, "Z"))
    F = np.fft.fft(f.values)
    k = np.abs(np.fft.fftfreq(g.n) * g.n)
    assert np.max(np.abs(F[k > g.n // 4])) <= 1e-10


def test_parse_potential_forms():
    assert verify.parse_potential("zero").tag == "zero"
    assert verify.parse_potential("const:3.5").c == 3.5
    assert verify.parse_potential("ce1:0.3").eps == 0.3
    assert verify.parse_potential("CE2:5").p == 5.0
    with pytest.raises(ValueError):
        verify.parse_potential("banana")


def test_runconfig_json_roundtrip():
    cfg = small_cfg()
    again = verify.RunConfig.from_dict(json.loads(cfg.to_json()))
    assert again == cfg
    with pytest.raises(ValueError, match="unknown config"):
        verify.RunConfig.from_dict({"nonsense": 1})


def test_unknown_check_and_suite():
    with pytest.raises(ValueError, match="unknown check"):
        verify.run_check("NOPE")
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("NOPE")


def test_interp_bound_endpoints():
    assert verify._interp_bound(2.0) == 1.0
    assert verify._interp_bound(1.0) == 2.0


def test_check_reports_are_deterministic():
    cfg = small_cfg()
    a = verify.run_check("L2_CONTRACT", cfg)
    b = verify.run_check("L2_CONTRACT", cfg)
    assert a.to_dict(include_runtime=False) == b.to_dict(include_runtime=False)


def test_interp_check_bound_at_p2():
    cfg = small_cfg(p_list=(2.0,))
    rep = verify.run_check("INTERP", cfg)
    # worst pair at p = 2 must carry bound 1; p = 1 is always included with bound 2
    assert rep.bound_value in (1.0, 2.0)
    assert rep.passed()


def test_green_mass_check_small():
    rep = verify.run_check("GREEN_MASS", small_cfg())
    assert rep.passed()
    assert rep.measured["const_equality_dev"] <= 1e-10


def test_domination_check_small():
    rep = verify.run_check("DOMINATION", small_cfg(d=2))
    assert rep.passed()
    assert rep.measured_value <= 1e-8


def test_suite_ordering_fixed():
    assert verify.SUITES["core"] == verify.CORE_CHECKS
    assert verify.SUITES["all"][: len(verify.CORE_CHECKS)] == verify.CORE_CHECKS


def test_report_contains_config_and_measured():
    rep = verify.run_check("COMPOSITION", small_cfg(n=32))
    raw = rep.to_dict()
    assert raw["config"]["n"] == 32
    assert "rel_frobenius_err" in raw["measured"]
    assert raw["verdict"] == "pass"


def test_core_suite_reports_do_not_depend_on_jobs():
    def body(reports):
        out = []
        for r in reports:
            raw = r.to_dict(include_runtime=False)
            raw["config"].pop("jobs")
            out.append(raw)
        return out

    one = verify.run_suite("core", verify.RunConfig(jobs=1))
    two = verify.run_suite("core", verify.RunConfig(jobs=2))
    assert [r.check_id for r in two] == list(verify.CORE_CHECKS)
    assert body(two) == body(one)
