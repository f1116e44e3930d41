import math
import tracemalloc

import numpy as np
import pytest

from rzlab import counterexamples as ce
from rzlab import potentials
from rzlab.grid import GridSpec, nested_lp_norms


def test_series_value_at_axis():
    v, g, terms = ce.axial_series(np.array([0.0]), 0.25)
    assert v[0] == 1.0
    assert g[0] == 0.0
    assert terms >= 1


def test_series_derivative_against_finite_differences():
    # d/dx1 at (x1, x2) = (0.01, 0): term-wise formula vs central difference
    eps = 0.25
    x1, x2 = 0.01, 0.0

    def v_at(a, b):
        val, _, _ = ce.axial_series(np.array([math.hypot(a, b)]), eps)
        return val[0]

    h = 1e-6
    fd = (v_at(x1 + h, x2) - v_at(x1 - h, x2)) / (2 * h)
    _, g, _ = ce.axial_series(np.array([math.hypot(x1, x2)]), eps)
    analytic = x1 / (x1**2 + x2**2) * g[0]
    assert analytic == pytest.approx(fd, rel=1e-6)
    # the leading term alone: x1 * r^(eps-2) / eps
    leading = x1 * math.hypot(x1, x2) ** (eps - 2.0) / eps
    assert leading == pytest.approx(126.49, rel=1e-3)


def test_series_leading_term_dominates_deep_down():
    # far below any grid scale the first term carries the profile
    eps = 0.25
    r = 1e-12
    _, g, _ = ce.axial_series(np.array([r]), eps)
    leading = eps * r**eps / eps**2
    assert g[0] == pytest.approx(leading, rel=1e-2)


@pytest.fixture(scope="module")
def ce1_residual():
    return ce.ce1_residual(GridSpec(3, 32, 2.5), 0.25)


def test_ce1_v_at_least_one(ce1_residual):
    assert ce1_residual["v_min"] >= 1.0


def test_ce1_harmonicity_residual(ce1_residual):
    assert ce1_residual["relative"] <= 1e-3


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.25, math.nan, math.inf])
def test_ce1_residual_validation(eps):
    with pytest.raises(ValueError, match="eps must lie in"):
        ce.ce1_residual(GridSpec(3, 16, 2.5), eps)


def test_ce1_scan_slopes():
    rep = ce.ce1_scan(0.25, 4.0)
    assert rep.verdict == "pass"
    assert rep.fit_slope == pytest.approx(-0.25, abs=0.05)
    assert np.all(np.diff(rep.values) >= 0)  # A grows as delta shrinks


def test_ce1_scan_control_flat():
    rep = ce.ce1_scan(0.8, 4.0)
    assert rep.expected_slope is None  # past the admissibility threshold
    assert rep.fit_slope >= -0.02


def test_ce1_scan_delta_guards():
    with pytest.raises(ValueError, match="decreasing"):
        ce.ce1_scan(0.25, 4.0, deltas=np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="4h"):
        ce.ce1_scan(0.25, 4.0, deltas=np.array([0.1, 1e-6]), section_n=256)
    with pytest.raises(ValueError, match="^a scan needs at least 3 cutoffs, got 0$"):
        ce.ce1_scan(0.25, 4.0, deltas=[])


def _full_section_ce1(eps, p, deltas, section_n):
    """CE1 scan values summed over the whole section, without the fold."""
    section = GridSpec(2, section_n, 0.5625)
    ax = section.axis()
    ax2 = ax**2

    def disk_rows(rows):
        r = np.sqrt(ax2[rows, None] + ax2)
        inside = r < 0.5
        x1 = np.broadcast_to(ax[rows, None], inside.shape)[inside]
        r = r[inside]
        with np.errstate(divide="ignore", invalid="ignore"):
            return r, np.where(r > 0, np.abs(x1) * r ** (eps - 2.0), 0.0) ** p

    return 5.0 ** (1.0 / p) * nested_lp_norms(section, p, deltas, disk_rows)


@pytest.mark.parametrize("section_n", [256, 512])
@pytest.mark.parametrize("eps,p", [(0.1, 3.0), (0.25, 4.0), (0.8, 4.0)])
def test_ce1_scan_quadrant_matches_full_section(section_n, eps, p):
    deltas = 2.0 ** np.linspace(-3, -5.5 if section_n == 256 else -6.5, 6)  # >= 4h
    rep = ce.ce1_scan(eps, p, deltas, section_n=section_n)
    want = _full_section_ce1(eps, p, deltas, section_n)
    np.testing.assert_allclose(rep.values, want, rtol=1e-12, atol=0)
    assert rep.extras["section"] == GridSpec(2, section_n, 0.5625)


def test_ce1_scan_rejects_section_with_odd_half():
    # the quadrant grid has n/2 points per axis, which must be even
    with pytest.raises(ValueError, match="even integer >= 4, got 129$"):
        ce.ce1_scan(0.25, 4.0, 2.0 ** np.linspace(-3, -5, 3), section_n=258)


CE1_PAIRS = ((0.1, 3.0), (0.25, 4.0), (0.4, 8.0), (0.8, 4.0))  # CE1's lattice, then its control


@pytest.mark.parametrize("section_n", [256, 1024])
def test_ce1_shared_walk_matches_per_pair_scans(section_n):
    deltas = 2.0 ** np.linspace(-3, -5.5 if section_n == 256 else -7.5, 6)  # >= 4h
    eps, ps = zip(*CE1_PAIRS)
    reps = ce.ce1_scan(eps, ps, deltas, section_n=section_n)
    assert len(reps) == len(CE1_PAIRS)
    for (e, p), rep in zip(CE1_PAIRS, reps):
        one = ce.ce1_scan(e, p, deltas, section_n=section_n)
        np.testing.assert_allclose(rep.values, one.values, rtol=1e-13, atol=0)
        assert rep.extras == one.extras and rep.verdict == one.verdict


@pytest.mark.parametrize("eps,p", CE1_PAIRS)
def test_ce1_float_pair_is_the_one_element_walk(eps, p):
    deltas = 2.0 ** np.linspace(-3, -5.5, 6)
    rep = ce.ce1_scan(eps, p, deltas, section_n=256)
    (walk,) = ce.ce1_scan((eps,), (p,), deltas, section_n=256)
    assert np.array_equal(rep.values, walk.values)
    assert (rep.fit_slope, rep.fit_r2, rep.expected_slope, rep.verdict) == (
        walk.fit_slope, walk.fit_r2, walk.expected_slope, walk.verdict)


def test_ce1_scan_rejects_unpaired_exponents():
    with pytest.raises(ValueError, match="equal-length, nonempty"):
        ce.ce1_scan((0.25, 0.1), (4.0,))
    with pytest.raises(ValueError, match="equal-length, nonempty"):
        ce.ce1_scan((), ())
    with pytest.raises(ValueError, match="finite p"):
        ce.ce1_scan((0.25, 0.1), (4.0, math.nan))


def test_nested_lp_norms_of_several_value_sets_equal_one_call_per_set():
    g = GridSpec(2, 16, 1.5)
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.0, 1.0, g.shape)
    values = rng.standard_normal((3, *g.shape))
    ps = (1.0, 2.5, 6.0)
    cutoffs = [0.8, 0.5, 0.1]
    dens = np.abs(values) ** np.array(ps)[:, None, None]
    got = nested_lp_norms(g, ps, cutoffs, lambda rows: (rho[rows], dens[:, rows]))
    assert got.shape == (3, 3)
    for k, p in enumerate(ps):
        one = nested_lp_norms(g, p, cutoffs, lambda rows: (rho[rows], dens[k, rows]))
        np.testing.assert_array_equal(got[k], one)


def test_ce1_shared_walk_memory():
    # four separate scans on blocks of 2^20 samples peaked at 48.6 MiB
    # (tracemalloc); the shared walk on blocks of 2^18 peaks near 16.3 MiB
    eps, ps = zip(*CE1_PAIRS)
    tracemalloc.start()
    try:
        ce.ce1_scan(eps, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


def test_ce2_scan_log_growth():
    rep = ce.ce2_scan(4.0)
    assert rep.fit_r2 > 0.99
    assert rep.verdict == "pass"
    incs = np.diff(rep.values)
    assert np.all(incs > 0)
    # log growth: equal-ratio delta steps give near-equal increments
    assert np.max(np.abs(incs / incs.mean() - 1.0)) < 0.05


def test_ce2_lower_bound_field_structure():
    f = ce.ce2_lower_bound_field(GridSpec(3, 12, 1.5), 4.0)
    assert f.values.min() >= 0.0
    pts = np.stack(f.spec.mesh(), axis=-1)
    outside = (pts**2).sum(axis=-1) >= 1.0
    assert np.max(f.values[outside]) == 0.0


@pytest.mark.parametrize("deltas", [(4.0, 2.0, 0.1), (1.0, 0.5, 0.1)])
def test_ce2_scan_rejects_cutoffs_outside_the_profile(deltas):
    with pytest.raises(ValueError, match="below the profile's support radius 1"):
        ce.ce2_scan(4.0, deltas)


@pytest.mark.parametrize("rhos", [(10.0, 100.0), (0.5, 2.0, 3.0), (1e3, 1e6, math.inf)])
def test_ce3_scan_rejects_radii_outside_the_tail(rhos):
    with pytest.raises(ValueError, match="finite and at least the inner radius 100"):
        ce.ce3_scan(rhos)


def test_ce2_and_ce3_scans_reject_an_empty_list():
    # the range checks pass an empty list on unindexed; the count check names it
    with pytest.raises(ValueError, match="^a scan needs at least 3 cutoffs, got 0$"):
        ce.ce2_scan(4.0, deltas=[])
    with pytest.raises(ValueError, match="^a scan needs at least 3 radii, got 0$"):
        ce.ce3_scan([])


def test_ce3_scan_lnln_increments():
    rep = ce.ce3_scan()
    assert rep.verdict == "pass"
    assert np.all(rep.extras["increment_rel_err"] <= 0.05)
    assert np.all(np.diff(rep.values) > 0)


def test_divergence_scan_dispatch():
    rep = ce.divergence_scan("CE3", {})
    assert rep.kind == "ce3"
    with pytest.raises(ValueError, match="unknown scan"):
        ce.divergence_scan("CE9", {})


@pytest.mark.parametrize("which, params", [
    ("CE3", {"p": 4.0}),  # a parameter another scan takes
    ("CE1", {"ambient_d": 4}),  # a construction constant, not a parameter
    ("CE2", {"p": 4.0, "r2_threshold": 0.0}),  # a gate, not a parameter
])
def test_divergence_scan_rejects_a_parameter_its_scan_does_not_take(which, params):
    with pytest.raises(ValueError, match=f"scan {which} takes no parameter"):
        ce.divergence_scan(which, params)


def test_green_bounded_ce3_finite_and_stable():
    a = ce.green_bounded_check(potentials.ce3(), 3, radius_cap=1e3)
    b = ce.green_bounded_check(potentials.ce3(), 3, radius_cap=2e3)
    assert not a.divergent
    assert abs(b.sup_estimate - a.sup_estimate) / a.sup_estimate < 0.02


def test_green_bounded_const_divergent():
    rep = ce.green_bounded_check(potentials.const(1.0), 3)
    assert rep.divergent
    assert rep.tail_bound == math.inf


def test_green_bounded_zero():
    rep = ce.green_bounded_check(potentials.zero(), 3)
    assert rep.sup_estimate == 0.0
    assert not rep.divergent


def test_green_bounded_validation():
    with pytest.raises(ValueError, match="d >= 3"):
        ce.green_bounded_check(potentials.ce3(), 2)
    with pytest.raises(ValueError, match="radial"):
        ce.green_bounded_check(potentials.ce2(4.0), 3)
