import math

import numpy as np
import pytest

from rzlab import potentials, semigroup
from rzlab.grid import Field, GridSpec


def at(spec, x, cap=math.inf) -> float:
    """eval_capped at one point."""
    return float(potentials.eval_capped(spec, np.array([x], dtype=float), cap)[0])


def test_ce3_at_origin():
    assert at(potentials.ce3(), [0.0, 0.0, 0.0]) == pytest.approx(math.log(4.0) ** -2, rel=1e-12)


def test_ce1_unit_radius():
    assert at(potentials.ce1(0.25), [1.0, 0.0, 3.7]) == pytest.approx(1.0)


def test_ce2_vanishes_outside_ball():
    assert at(potentials.ce2(4.0), [0.5, 0.9, 0.5]) == 0.0


def test_singular_points_read_the_cap():
    for cap in (7.5, math.inf):
        assert at(potentials.ce1(0.25), [0.0, 0.0, 1.0], cap) == cap  # on the x1 = x2 = 0 axis
        assert at(potentials.ce2(4.0), [0.0, 0.1, 0.1], cap) == cap  # on the x1 = 0 hyperplane


def test_discretize_zero_and_const():
    g = GridSpec(2, 8, 1.0)
    z = potentials.discretize_potential(potentials.zero(), g)
    assert np.all(z.values == 0.0)
    c = potentials.discretize_potential(potentials.const(3.5), g)
    assert np.all(c.values == 3.5)


def test_ce1_auto_cap_value():
    # half-cell value: (h/2)^(eps - 2) with h = 0.125 gives 0.0625^(-1.75) = 128
    g = GridSpec(2, 16, 1.0)
    f = potentials.discretize_potential(potentials.ce1(0.25), g)
    assert f.values.max() == pytest.approx(128.0, rel=1e-12)
    assert potentials.auto_cap(potentials.ce1(0.25), g) == pytest.approx(128.0, rel=1e-12)


def test_discretize_bounds_and_monotonicity():
    g = GridSpec(2, 16, 2.0)
    pts = g.points()
    for spec in (potentials.ce1(0.3), potentials.ce2(4.0)):
        lo = potentials.eval_capped(spec, pts, 5.0)
        hi = potentials.eval_capped(spec, pts, 50.0)
        assert lo.min() >= 0.0
        assert lo.max() == 5.0  # the singular set and its neighbours reach the cap
        assert np.all(hi >= lo)


def test_uncapped_matches_formula_for_smooth_tags():
    g = GridSpec(2, 8, 2.0)
    pts = g.points()
    for spec, expect in ((potentials.zero(), np.zeros(len(pts))),
                         (potentials.const(2.0), np.full(len(pts), 2.0)),
                         (potentials.harmonic(), np.einsum("ij,ij->i", pts, pts))):
        np.testing.assert_array_equal(potentials.discretize_potential(spec, g).flat(), expect)


def test_ce1_requires_two_dims():
    g = GridSpec(1, 8, 1.0)
    with pytest.raises(ValueError, match="d >= 2"):
        potentials.discretize_potential(potentials.ce1(0.25), g)


def test_spec_validation():
    with pytest.raises(ValueError):
        potentials.ce1(1.5)
    with pytest.raises(ValueError):
        potentials.ce2(2.0)
    with pytest.raises(ValueError):
        potentials.const(-1.0)


def test_custom_potential_roundtrip():
    g = GridSpec(1, 8, 1.0)
    base = Field(g, np.abs(np.sin(g.axis())) + 0.5)
    f = potentials.discretize_potential(potentials.custom(base), g)
    assert f.values.tobytes() == base.values.tobytes()  # samples as given, uncapped
    with pytest.raises(potentials.GridMismatchError, match="sampled on"):
        potentials.discretize_potential(potentials.custom(base), GridSpec(1, 8, 2.0))


@pytest.mark.parametrize("d,n", [(1, 12), (2, 8), (3, 4)])
def test_custom_eval_is_the_nearest_sample(d, n):
    g = GridSpec(d, n, 2.5)
    rng = np.random.default_rng(d)
    field = Field(g, rng.uniform(0.0, 3.0, g.shape))
    pts = rng.uniform(-3.0 * g.R, 3.0 * g.R, (5, 40, d))  # most lie outside [-R, R)^d
    # exact half-cell ties, both signs, inside the box and on its edge
    ties = g.h * (rng.integers(-n // 2, n // 2, (5, 4, d)) + 0.5)
    pts = np.concatenate([pts, ties, np.full((5, 1, d), g.R), np.full((5, 1, d), -g.R)], axis=1)
    got = potentials.eval_capped(potentials.custom(field), pts)
    want = [[field.values[g.nearest_index(q)] for q in row] for row in pts]
    assert got.shape == pts.shape[:-1]
    assert got.tobytes() == np.array(want).tobytes()
    assert np.array_equal(potentials.eval_capped(potentials.custom(field), pts, 1.0),
                          np.minimum(got, 1.0))


@pytest.mark.parametrize("d", [1, 2])
def test_constant_custom_field_is_const_under_feynman_kac(d):
    g = GridSpec(d, 16, 4.0)
    flat = potentials.custom(Field(g, np.full(g.shape, 1.5)))
    xs, ys = [[0.0] * d, [0.3] * d], [[0.0] * d, [-4.5] * d]  # the second leaves the box
    args = (xs, ys, [0.25, 0.5], 3000, 1234)
    a = semigroup.fk_kernel_estimate([flat], *args)
    b = semigroup.fk_kernel_estimate([potentials.const(1.5)], *args)
    assert a.tobytes() == b.tobytes()


def test_catalog_dimension_filter():
    tags1 = [p.tag for p in potentials.standard_catalog(1)]
    tags2 = [p.tag for p in potentials.standard_catalog(2)]
    assert "ce1" not in tags1
    assert "ce1" in tags2
