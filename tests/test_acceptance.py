"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria pin their own grid configurations and tolerances; nothing here is
calibrated at run time.  Heavy dense decompositions are shared through the
library caches, so ordering within this module only affects runtime.
"""

import json
import math
import time

from rzlab import verify


def _line(num, ok, text):
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_kernel_domination():
    cfg = verify.RunConfig(d=2, n=32, R=4.0)
    t0 = time.perf_counter()
    rep = verify.run_check("DOMINATION", cfg)
    elapsed = time.perf_counter() - t0
    ok = rep.passed() and elapsed < 10.0
    _line(1, ok, f"K_t f <= H_t f + 1e-8 pointwise (worst excess "
                 f"{rep.measured_value:.3e}, {elapsed:.1f}s)")


def test_criterion_02_composition_identity():
    cfg = verify.RunConfig(d=1, n=64, R=4.0, potential="harmonic")
    t0 = time.perf_counter()
    rep = verify.run_check("COMPOSITION", cfg)
    elapsed = time.perf_counter() - t0
    ok = rep.passed() and rep.measured_value <= 1e-10 and elapsed < 5.0
    _line(2, ok, f"half-power composition residual {rep.measured_value:.2e} <= 1e-10 "
                 f"({elapsed:.1f}s)")


def test_criterion_03_green_mass():
    cfg = verify.RunConfig(d=1, n=32, R=4.0)
    t0 = time.perf_counter()
    rep = verify.run_check("GREEN_MASS", cfg)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.passed()
        and rep.measured["const_equality_dev"] <= 1e-10
        and rep.measured["random_max_mass"] <= 1.0 + 1e-8
        and elapsed < 30.0
    )
    _line(3, ok, f"Green mass: const dev {rep.measured['const_equality_dev']:.2e}, "
                 f"random max {rep.measured['random_max_mass']:.12f} ({elapsed:.1f}s)")


def test_criterion_04_l2_contraction():
    ok = True
    worst = -math.inf
    for d, n in ((1, 32), (2, 16)):
        rep = verify.run_check("L2_CONTRACT", verify.RunConfig(d=d, n=n, trials=100))
        ok &= rep.passed()
        worst = max(worst, rep.measured_value)
    _line(4, ok and worst <= 1.0 + 1e-6,
          f"L2 ratio of half-power factor <= 1 + 1e-6 (worst {worst:.9f})")


def test_criterion_05_l1_and_w_kernel():
    ok = True
    details = []
    for d, n in ((1, 32), (2, 16)):
        cfg = verify.RunConfig(d=d, n=n, trials=100)
        w = verify.run_check("W_KERNEL", cfg)
        l1 = verify.run_check("L1_BOUND", cfg)
        ok &= w.passed() and l1.passed()
        details.append(f"d={d}: colmass {w.measured_value:.7f}, L1 {l1.measured_value:.6f}")
    _line(5, ok, "W entries >= -1e-8 rel, column mass <= 2 sqrt(pi) + 1e-6, "
                 "L1 ratio <= 2(1+1e-6); " + "; ".join(details))


def test_criterion_06_interpolation_bounds():
    ok = True
    worst = -math.inf
    for d, n in ((1, 32), (2, 16)):
        cfg = verify.RunConfig(d=d, n=n, trials=100, p_list=(1.25, 1.5, 2.0))
        rep = verify.run_check("INTERP", cfg)
        ok &= rep.passed()
        worst = max(worst, rep.measured_value / rep.bound_value)
    _line(6, ok, f"per-function p-norm ratios within 2^((2-p)/p)(1+1e-3) "
                 f"(worst margin {worst:.6f})")


def test_criterion_07_theorem_chain():
    t0 = time.perf_counter()
    rep = verify.run_check("THEOREM", verify.RunConfig(n=16))
    elapsed = time.perf_counter() - t0
    ok = rep.passed() and elapsed < 300.0
    m = rep.measured
    _line(7, ok, f"route agreement {m['route_rel_err_dense']:.1e} (dense) / "
                 f"{m['route_rel_err_quad']:.1e} (quad); vector margin "
                 f"{m['vector_margin']:.4f} across d=1,2,3 ({elapsed:.0f}s)")


def test_criterion_08_weak11_stability():
    rep = verify.run_check("WEAK11", verify.RunConfig(d=2, n=16))
    _line(8, rep.passed(), f"weak-(1,1) functional changes {rep.measured_value:.3f} "
                           "< 0.10 when n doubles 16 -> 32")


def test_criterion_09_counterexample_1():
    rep = verify.run_check("CE1", verify.RunConfig())
    m = rep.measured
    ok = (
        rep.passed()
        and abs(m["slope_eps0.25_p4"] - (-0.25)) <= 0.05
        and abs(m["slope_eps0.1_p3"] - (0.1 - 1 + 2 / 3)) <= 0.05
        and m["control_slope"] >= -0.02
        and rep.config["section"] == {"d": 2, "n": 4096, "R": 0.5625}
        and len(rep.config["deltas"]) == 9
        and rep.config["residual_grid"] == {"d": 3, "n": 32, "R": 2.5}
    )
    _line(9, ok, f"slopes {m['slope_eps0.25_p4']:.4f} (want -0.25), "
                 f"{m['slope_eps0.1_p3']:.4f} (want {0.1 - 1 + 2 / 3:.4f}), "
                 f"control {m['control_slope']:.4f} >= -0.02")


def test_criterion_10_counterexample_2():
    rep = verify.run_check("CE2", verify.RunConfig())
    m = rep.measured
    ok = (
        rep.passed()
        and m["mass_fit_r2"] > 0.99
        and 0.0 < m["fitted_c"] <= 1.0
        and m["fitted_ct_over_t"] >= 1.0
    )
    _line(10, ok, f"mass fit R2 {m['mass_fit_r2']:.5f} > 0.99; envelope "
                  f"c={m['fitted_c']:.3f}, ct/t={m['fitted_ct_over_t']:.2f}")


def test_criterion_11_counterexample_3():
    rep = verify.run_check("CE3", verify.RunConfig())
    m = rep.measured
    ok = rep.passed() and m["green_stability"] < 0.02
    _line(11, ok, f"ln ln increments within 5% (worst {rep.measured_value:.2e}); "
                  f"Green sup stable to {m['green_stability']:.2e} under cap doubling")


def test_criterion_12_oracles_and_determinism():
    cfg = verify.RunConfig(seed=1)
    t0 = time.perf_counter()
    first = verify.run_suite("oracles", cfg)
    second = verify.run_suite("oracles", cfg)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed() for r in first) and elapsed < 120.0
    blob_a = json.dumps([r.to_dict(include_runtime=False) for r in first], sort_keys=True)
    blob_b = json.dumps([r.to_dict(include_runtime=False) for r in second], sort_keys=True)
    ok &= blob_a == blob_b
    fk = next(r for r in first if r.check_id == "FK_ORACLE")
    qd = next(r for r in first if r.check_id == "QUAD_VS_DENSE")
    _line(12, ok, f"FK within 3 sigma (worst {fk.measured_value:.2f}); quadrature vs "
                  f"dense {qd.measured_value:.2e} <= 1e-4; re-run byte-identical "
                  f"({elapsed:.0f}s for both runs)")
