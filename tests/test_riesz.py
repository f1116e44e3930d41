import numpy as np
import pytest

from rzlab import fracpow, potentials, riesz, spectral
from rzlab.grid import Field, GridSpec, lp_ratios
from rzlab.verify import trial_family


def one_field(g, rng):
    """One band-limited mean-zero trial field."""
    return Field(g, trial_family(g, rng, 1, structured=False)[0])


@pytest.fixture
def g2():
    return GridSpec(2, 16, 4.0)


@pytest.fixture
def harm(g2):
    return potentials.discretize_potential(potentials.harmonic(), g2)


def test_zero_potential_reduces_to_classical(g2):
    rng = np.random.default_rng(0)
    f = one_field(g2, rng)
    V0 = potentials.discretize_potential(potentials.zero(), g2)
    got = riesz.schrodinger_riesz(f, V0, route="direct")
    want = riesz.classical_riesz(f.values[None], g2)
    np.testing.assert_allclose(got.components, want.components, atol=1e-10)


def test_route_equivalence_dense(g2, harm):
    rng = np.random.default_rng(1)
    f = one_field(g2, rng)
    direct = riesz.schrodinger_riesz(f, harm, route="direct")
    factored = riesz.schrodinger_riesz(f, harm, route="factored")
    scale = np.abs(factored.components).max()
    assert np.max(np.abs(direct.components - factored.components)) <= 1e-10 * scale


def test_magnitude_squared_identity(g2, harm):
    rng = np.random.default_rng(2)
    f = one_field(g2, rng)
    res = riesz.schrodinger_riesz(f, harm)
    total = (res.components**2).sum(axis=1)
    np.testing.assert_allclose(res.magnitude**2, total, atol=1e-12)


def test_vector_p2_bound_over_trials(g2, harm):
    rng = np.random.default_rng(3)
    stack = trial_family(g2, rng, 20, structured=False)
    half = fracpow.dense_power(stack, harm, -0.5)
    res = riesz.riesz_from_inv_sqrt(half, g2)
    assert np.all(lp_ratios(res.magnitude, stack, g2, 2.0) <= 1.0 + 1e-6)


def test_linearity(g2, harm):
    rng = np.random.default_rng(4)
    f1, f2 = (Field(g2, v) for v in trial_family(g2, rng, 2, structured=False))
    combo = Field(g2, 2.0 * f1.values - 3.0 * f2.values)
    lhs = riesz.schrodinger_riesz(combo, harm)
    r1 = riesz.schrodinger_riesz(f1, harm)
    r2 = riesz.schrodinger_riesz(f2, harm)
    np.testing.assert_allclose(
        lhs.components, 2.0 * r1.components - 3.0 * r2.components, atol=1e-10
    )


def test_quad_backend_close_to_dense(g2, harm):
    rng = np.random.default_rng(5)
    f = one_field(g2, rng)
    dense = riesz.schrodinger_riesz(f, harm)
    half = fracpow.frac_power_apply(f, harm, -0.5)
    viaq = riesz.riesz_from_inv_sqrt(half.values[None], g2)
    num = np.sum((dense.components - viaq.components) ** 2)
    den = np.sum(dense.components**2)
    assert np.sqrt(num / den) <= 1e-3


def test_sqrt_potential_zero_gives_zero(g2):
    rng = np.random.default_rng(6)
    f = one_field(g2, rng)
    V0 = potentials.discretize_potential(potentials.zero(), g2)
    out = riesz.sqrt_potential_inv_sqrt(f.values[None], V0)
    assert np.all(out == 0.0)


def test_sqrt_potential_const_ratio_below_one(g2):
    rng = np.random.default_rng(7)
    f = one_field(g2, rng)
    V = potentials.discretize_potential(potentials.const(3.0), g2)
    out = riesz.sqrt_potential_inv_sqrt(f.values[None], V)
    assert lp_ratios(out, f.values[None], g2, 2.0)[0] <= 1 + 1e-10


def test_sqrt_potential_harmonic_p2_bound(g2, harm):
    rng = np.random.default_rng(8)
    stack = trial_family(g2, rng, 10, structured=False)
    out = riesz.sqrt_potential_inv_sqrt(stack, harm)
    assert np.all(lp_ratios(out, stack, g2, 2.0) <= 1 + 1e-6)


@pytest.mark.parametrize("pot", [potentials.zero(), potentials.harmonic(), potentials.ce3()],
                         ids=lambda p: p.tag)
def test_stacked_inv_sqrt_matches_per_field(g2, pot):
    V = potentials.discretize_potential(pot, g2)
    rng = np.random.default_rng(10)
    fields = [Field(g2, v) for v in trial_family(g2, rng, 4, structured=False)]
    halves = fracpow.dense_power(np.stack([f.values for f in fields]), V, -0.5)
    for f, h in zip(fields, halves):
        want = fracpow.dense_power(f.values[None], V, -0.5)[0]
        np.testing.assert_allclose(h, want, rtol=0, atol=1e-12 * np.abs(want).max())
        for route in riesz.ROUTES:
            got = riesz.riesz_from_inv_sqrt(h[None], g2, route=route)
            ref = riesz.schrodinger_riesz(f, V, route=route)
            np.testing.assert_allclose(got.components, ref.components, rtol=0,
                                       atol=1e-12 * np.abs(ref.components).max())


def _one_field_reference(v, g, name):
    """Components and magnitude by one-field multipliers, summed in component order."""
    f = Field(g, v)
    if name == "factored":
        f = spectral.apply_multiplier(f, spectral.sqrt_laplacian())
    m = spectral.derivative if name == "direct" else spectral.riesz
    comps = [spectral.apply_multiplier(f, m(j)).values for j in range(1, g.d + 1)]
    return np.stack(comps), np.sqrt(sum(c**2 for c in comps))


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
def test_stacked_riesz_equals_batch_of_one_exactly(d, n):
    g = GridSpec(d, n, 4.0)
    rng = np.random.default_rng(d)
    stack = trial_family(g, rng, 5, structured=False)
    for name, run in [
        *((route, lambda x, r=route: riesz.riesz_from_inv_sqrt(x, g, route=r))
          for route in riesz.ROUTES),
        ("classical", lambda x: riesz.classical_riesz(x, g)),
    ]:
        whole = run(stack)
        assert whole.components.shape == (5, d, *g.shape), name
        assert whole.magnitude.shape == stack.shape, name
        for i in range(len(stack)):
            one = run(stack[i:i + 1])
            assert np.array_equal(one.components, whole.components[i:i + 1]), name
            assert np.array_equal(one.magnitude, whole.magnitude[i:i + 1]), name
            if name == "factored":
                assert np.array_equal(one.companion, whole.companion[i:i + 1])
            comps, magnitude = _one_field_reference(stack[i], g, name)
            assert np.array_equal(whole.components[i], comps), name
            assert np.array_equal(whole.magnitude[i], magnitude), name


@pytest.mark.parametrize("pot", [potentials.zero(), potentials.harmonic()], ids=lambda p: p.tag)
def test_potential_on_another_grid_rejected(g2, pot):
    # V = 0 is checked against the field's grid like any other potential
    f = one_field(g2, np.random.default_rng(11))
    V = potentials.discretize_potential(pot, GridSpec(2, 8, 4.0))
    with pytest.raises(ValueError, match="grid does not match"):
        riesz.schrodinger_riesz(f, V)


def test_unknown_route_rejected(g2, harm):
    rng = np.random.default_rng(9)
    f = one_field(g2, rng)
    with pytest.raises(ValueError):
        riesz.schrodinger_riesz(f, harm, route="sideways")
