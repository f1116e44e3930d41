import numpy as np
import pytest

from rzlab import fracpow, potentials, riesz
from rzlab.grid import Field, GridSpec, lp_norm
from rzlab.verify import bandlimited_field


@pytest.fixture
def g2():
    return GridSpec(2, 16, 4.0)


@pytest.fixture
def harm(g2):
    return potentials.discretize_potential(potentials.harmonic(), g2)


def test_zero_potential_reduces_to_classical(g2):
    rng = np.random.default_rng(0)
    f = bandlimited_field(g2, rng)
    V0 = potentials.discretize_potential(potentials.zero(), g2)
    got = riesz.schrodinger_riesz(f, V0, route="direct")
    want = riesz.classical_riesz(f)
    for a, b in zip(got.components, want.components):
        np.testing.assert_allclose(a.values, b.values, atol=1e-10)


def test_route_equivalence_dense(g2, harm):
    rng = np.random.default_rng(1)
    f = bandlimited_field(g2, rng)
    direct = riesz.schrodinger_riesz(f, harm, route="direct")
    factored = riesz.schrodinger_riesz(f, harm, route="factored")
    scale = max(np.abs(c.values).max() for c in factored.components)
    for a, b in zip(direct.components, factored.components):
        assert np.max(np.abs(a.values - b.values)) <= 1e-10 * scale


def test_magnitude_squared_identity(g2, harm):
    rng = np.random.default_rng(2)
    f = bandlimited_field(g2, rng)
    res = riesz.schrodinger_riesz(f, harm)
    total = sum(c.values**2 for c in res.components)
    np.testing.assert_allclose(res.magnitude.values**2, total, atol=1e-12)


def test_vector_p2_bound_over_trials(g2, harm):
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = bandlimited_field(g2, rng)
        res = riesz.schrodinger_riesz(f, harm)
        assert riesz.vector_ratio(res, f, 2.0) <= 1.0 + 1e-6


def test_linearity(g2, harm):
    rng = np.random.default_rng(4)
    f1 = bandlimited_field(g2, rng)
    f2 = bandlimited_field(g2, rng)
    combo = Field(g2, 2.0 * f1.values - 3.0 * f2.values)
    lhs = riesz.schrodinger_riesz(combo, harm)
    r1 = riesz.schrodinger_riesz(f1, harm)
    r2 = riesz.schrodinger_riesz(f2, harm)
    for a, b, c in zip(lhs.components, r1.components, r2.components):
        np.testing.assert_allclose(a.values, 2.0 * b.values - 3.0 * c.values, atol=1e-10)


def test_quad_backend_close_to_dense(g2, harm):
    rng = np.random.default_rng(5)
    f = bandlimited_field(g2, rng)
    dense = riesz.schrodinger_riesz(f, harm)
    quad = fracpow.build_quadrature(-0.5, fracpow.spectral_bounds(g2, harm))
    viaq = riesz.riesz_from_inv_sqrt(fracpow.frac_power_apply(f, harm, -0.5, quad))
    num = sum(np.sum((a.values - b.values) ** 2) for a, b in zip(dense.components, viaq.components))
    den = sum(np.sum(c.values**2) for c in dense.components)
    assert np.sqrt(num / den) <= 1e-3


def test_sqrt_potential_zero_gives_zero(g2):
    rng = np.random.default_rng(6)
    f = bandlimited_field(g2, rng)
    V0 = potentials.discretize_potential(potentials.zero(), g2)
    out = riesz.sqrt_potential_inv_sqrt(f, V0)
    assert np.all(out.values == 0.0)


def test_sqrt_potential_const_ratio_below_one(g2):
    rng = np.random.default_rng(7)
    f = bandlimited_field(g2, rng)
    V = potentials.discretize_potential(potentials.const(3.0), g2)
    out = riesz.sqrt_potential_inv_sqrt(f, V)
    assert lp_norm(out, 2.0) <= lp_norm(f, 2.0) * (1 + 1e-10)


def test_sqrt_potential_harmonic_p2_bound(g2, harm):
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = bandlimited_field(g2, rng)
        out = riesz.sqrt_potential_inv_sqrt(f, harm)
        assert lp_norm(out, 2.0) <= lp_norm(f, 2.0) * (1 + 1e-6)


@pytest.mark.parametrize("pot", [potentials.zero(), potentials.harmonic(), potentials.ce3()],
                         ids=lambda p: p.tag)
def test_stacked_inv_sqrt_matches_per_field(g2, pot):
    V = potentials.discretize_potential(pot, g2)
    rng = np.random.default_rng(10)
    fields = [bandlimited_field(g2, rng) for _ in range(4)]
    halves = fracpow.dense_power(g2, V, -0.5, np.stack([f.values for f in fields]))
    for f, h in zip(fields, halves):
        want = riesz.inv_sqrt_apply(f, V)
        np.testing.assert_allclose(h, want.values, rtol=0, atol=1e-12 * np.abs(want.values).max())
        for route in riesz.ROUTES:
            got = riesz.riesz_from_inv_sqrt(Field(g2, h), route=route)
            ref = riesz.schrodinger_riesz(f, V, route=route)
            for a, b in zip(got.components, ref.components):
                np.testing.assert_allclose(a.values, b.values, rtol=0,
                                           atol=1e-12 * np.abs(b.values).max())


@pytest.mark.parametrize("pot", [potentials.zero(), potentials.harmonic()], ids=lambda p: p.tag)
def test_potential_on_another_grid_rejected(g2, pot):
    # V = 0 is checked against the field's grid like any other potential
    f = bandlimited_field(g2, np.random.default_rng(11))
    V = potentials.discretize_potential(pot, GridSpec(2, 8, 4.0))
    with pytest.raises(ValueError, match="grid does not match"):
        riesz.schrodinger_riesz(f, V)


def test_unknown_route_rejected(g2, harm):
    rng = np.random.default_rng(9)
    f = bandlimited_field(g2, rng)
    with pytest.raises(ValueError):
        riesz.schrodinger_riesz(f, harm, route="sideways")
