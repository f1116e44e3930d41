import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rzlab import spectral
from rzlab.grid import Field, GridSpec


@pytest.fixture
def g1():
    return GridSpec(1, 32, 4.0)


def mode(g, k=1):
    x = g.axis()
    return Field(g, np.cos(k * np.pi / g.R * x))


def test_heat_on_single_mode(g1):
    f = mode(g1)
    t = 0.3
    out = spectral.apply_multiplier(f, spectral.heat(t))
    xi2 = (np.pi / g1.R) ** 2
    np.testing.assert_allclose(out.values, math.exp(-t * xi2) * f.values, atol=1e-12)


def test_riesz_on_single_mode(g1):
    f = mode(g1)
    out = spectral.apply_multiplier(f, spectral.riesz(1))
    np.testing.assert_allclose(out.values, -np.sin(np.pi / g1.R * g1.axis()), atol=1e-12)


@pytest.mark.parametrize("m", [
    spectral.inv_sqrt_laplacian(),
    spectral.inv_laplacian(),
    spectral.riesz(1),
])
def test_mean_mode_convention(g1, m):
    f = Field(g1, np.ones(g1.shape))
    out = spectral.apply_multiplier(f, m)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-13)


def test_heat_identity_at_zero(g1):
    rng = np.random.default_rng(0)
    f = Field(g1, rng.standard_normal(g1.shape))
    out = spectral.apply_multiplier(f, spectral.heat(0.0))
    np.testing.assert_allclose(out.values, f.values, atol=1e-13)


def test_heat_rejects_negative_time(g1):
    f = mode(g1)
    with pytest.raises(ValueError):
        spectral.apply_multiplier(f, spectral.heat(-0.1))


def test_heat_semigroup_property(g1):
    rng = np.random.default_rng(1)
    f = Field(g1, rng.standard_normal(g1.shape))
    once = spectral.apply_multiplier(f, spectral.heat(0.7))
    half = spectral.apply_multiplier(f, spectral.heat(0.3))
    twice = spectral.apply_multiplier(half, spectral.heat(0.4))
    np.testing.assert_allclose(twice.values, once.values, rtol=1e-12, atol=1e-14)


def test_heat_positivity_on_smooth_nonneg(g1):
    pts = g1.axis()
    f = Field(g1, np.exp(-((pts - 0.5) ** 2) / 0.5))
    for t in (0.1, 0.5, 1.0):
        out = spectral.apply_multiplier(f, spectral.heat(t))
        assert out.values.min() >= -1e-10 * f.values.max()


def test_heat_delta_matches_gaussian():
    # discrete delta, small time: kernel values match the free Gaussian to 1%
    g = GridSpec(1, 64, 4.0)
    t = 0.04
    vals = np.zeros(g.shape)
    i0 = g.nearest_index([0.0])
    vals[i0] = 1.0 / g.cell_volume
    out = spectral.apply_multiplier(Field(g, vals), spectral.heat(t))
    x = g.axis()
    pred = (4 * math.pi * t) ** -0.5 * np.exp(-(x**2) / (4 * t))
    sel = np.abs(x) <= 1.2
    np.testing.assert_allclose(out.values[sel], pred[sel], rtol=0.01)


def test_sqrt_compose_inv_sqrt_is_identity(g1):
    rng = np.random.default_rng(2)
    v = rng.standard_normal(g1.shape)
    v -= v.mean()
    f = Field(g1, v)
    half = spectral.apply_multiplier(f, spectral.inv_sqrt_laplacian())
    back = spectral.apply_multiplier(half, spectral.sqrt_laplacian())
    np.testing.assert_allclose(back.values, f.values, rtol=1e-12, atol=1e-12)


def test_deriv_of_inv_sqrt_equals_riesz(g1):
    rng = np.random.default_rng(3)
    v = rng.standard_normal(g1.shape)
    v -= v.mean()
    f = Field(g1, v)
    a = spectral.apply_multiplier(
        spectral.apply_multiplier(f, spectral.inv_sqrt_laplacian()), spectral.derivative(1)
    )
    b = spectral.apply_multiplier(f, spectral.riesz(1))
    np.testing.assert_allclose(a.values, b.values, atol=1e-12)


def test_parseval_on_mean_zero_modes(g1):
    # |m| = 1 on a single mode: the Riesz multiplier preserves the L2 norm
    f = mode(g1, k=3)
    out = spectral.apply_multiplier(f, spectral.riesz(1))
    assert np.linalg.norm(out.values) == pytest.approx(np.linalg.norm(f.values), rel=1e-12)


def test_odd_symbol_keeps_delta_real():
    # full-spectrum input: the Nyquist-plane convention keeps output real
    g = GridSpec(2, 16, 2.0)
    vals = np.zeros(g.shape)
    vals[3, 5] = 1.0 / g.cell_volume
    out = spectral.apply_multiplier(Field(g, vals), spectral.riesz(1))
    assert np.all(np.isfinite(out.values))


def test_axis_out_of_range(g1):
    f = mode(g1)
    with pytest.raises(ValueError, match="out of range"):
        spectral.apply_multiplier(f, spectral.riesz(2))


def test_multiplier_spec_validation():
    with pytest.raises(ValueError):
        spectral.MultiplierSpec("nope")
    with pytest.raises(ValueError):
        spectral.heat(-1.0)
    with pytest.raises(ValueError):
        spectral.MultiplierSpec("lap", t=1.0)
    with pytest.raises(ValueError):
        spectral.MultiplierSpec("deriv")


@st.composite
def grids(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.sampled_from([4, 6, 8, 10, 16] if d < 3 else [4, 6, 8]))
    return GridSpec(d, n, draw(st.floats(0.5, 8.0)))


def random_values(g, seed, mean_zero=False, nyquist=True):
    """Random real samples, optionally without the mean mode or the Nyquist planes."""
    v = np.random.default_rng(seed).standard_normal(g.shape)
    coef = np.fft.fftn(v)
    if mean_zero:
        coef[(0,) * g.d] = 0.0
    if not nyquist:
        for a in range(g.d):
            np.moveaxis(coef, a, 0)[g.n // 2] = 0.0
    return np.fft.ifftn(coef).real


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(g=grids(), seed=SEEDS, s=st.floats(0.0, 2.0), t=st.floats(0.0, 2.0))
def test_heat_composition_property(g, seed, s, t):
    f = Field(g, random_values(g, seed))
    twice = spectral.apply_multiplier(spectral.apply_multiplier(f, spectral.heat(s)), spectral.heat(t))
    once = spectral.apply_multiplier(f, spectral.heat(s + t))
    np.testing.assert_allclose(twice.values, once.values, rtol=0, atol=1e-13 * np.abs(f.values).max())


@settings(max_examples=30, deadline=None)
@given(g=grids(), seed=SEEDS)
def test_sqrt_lap_inverts_inv_sqrt_lap_property(g, seed):
    f = Field(g, random_values(g, seed, mean_zero=True))
    half = spectral.apply_multiplier(f, spectral.inv_sqrt_laplacian())
    back = spectral.apply_multiplier(half, spectral.sqrt_laplacian())
    np.testing.assert_allclose(back.values, f.values, rtol=0, atol=1e-12 * np.abs(f.values).max())


@settings(max_examples=30, deadline=None)
@given(g=grids(), seed=SEEDS)
def test_riesz_squares_sum_to_minus_identity_property(g, seed):
    f = Field(g, random_values(g, seed, mean_zero=True, nyquist=False))
    total = np.zeros(g.shape)
    for j in range(1, g.d + 1):
        rj = spectral.riesz(j)
        total += spectral.apply_multiplier(spectral.apply_multiplier(f, rj), rj).values
    np.testing.assert_allclose(total, -f.values, rtol=0, atol=1e-12 * np.abs(f.values).max())


@settings(max_examples=30, deadline=None)
@given(g=grids(), seed=SEEDS, t=st.floats(0.0, 2.0))
def test_real_input_gives_real_output_property(g, seed, t):
    v = random_values(g, seed)
    catalog = [spectral.heat(t), spectral.laplacian(), spectral.sqrt_laplacian(),
               spectral.inv_sqrt_laplacian(), spectral.inv_laplacian()]
    catalog += [m(j) for m in (spectral.derivative, spectral.riesz) for j in range(1, g.d + 1)]
    for m in catalog:
        full = np.fft.ifftn(np.fft.fftn(v) * m.symbol(g))
        scale = max(np.abs(full.real).max(), np.abs(v).max())
        assert np.abs(full.imag).max() <= 1e-13 * scale, m
        spectral.apply_multiplier(Field(g, v), m)  # raises on a residue above 1e-10


@pytest.mark.parametrize("d,n", [(1, 16), (2, 8), (3, 4)])
def test_stack_residue_checked_per_field(d, n):
    # the symbol is not Hermitian at one mode, so it turns real fields complex;
    # a constant field has no content there and stays real
    g = GridSpec(d, n, 2.0)
    symbol = np.ones(g.shape, dtype=complex)
    symbol[(1,) * d] += 1j
    noisy = np.random.default_rng(d).standard_normal(g.shape)
    with pytest.raises(spectral.TransformResidueError):
        spectral.apply_symbol_stack(np.stack([noisy, noisy]), symbol, d)
    # a small field next to a large one is judged on its own scale
    small_next_to_large = np.stack([np.full(g.shape, 1e12), 1e-3 * noisy])
    with pytest.raises(spectral.TransformResidueError):
        spectral.apply_symbol_stack(small_next_to_large, symbol, d)
    out = spectral.apply_symbol_stack(np.full((2, *g.shape), 1e12), symbol, d)
    np.testing.assert_allclose(out, 1e12, rtol=1e-12)
    with pytest.raises(spectral.TransformResidueError):  # one field, no batch axis
        spectral.apply_symbol_stack(noisy, symbol, d)


def catalog(d, t=0.3):
    """Every catalog multiplier on a d-dimensional grid."""
    out = [spectral.heat(t), spectral.laplacian(), spectral.sqrt_laplacian(),
           spectral.inv_sqrt_laplacian(), spectral.inv_laplacian()]
    return out + [m(j) for m in (spectral.derivative, spectral.riesz) for j in range(1, d + 1)]


@pytest.mark.parametrize("d,n,R", [(1, 32, 4.0), (2, 16, 2.5), (3, 8, 1.3)])
def test_catalog_symbols_are_exactly_hermitian(d, n, R):
    g = GridSpec(d, n, R)
    for m in catalog(d):
        hermitian, skew = spectral.hermitian_parts(m.symbol(g), d)
        assert np.all(skew == 0), m
        assert np.array_equal(hermitian, m.symbol(g)), m


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
def test_real_transform_matches_complex_transform(d, n):
    g = GridSpec(d, n, 3.0)
    stack = np.random.default_rng(d).standard_normal((3, *g.shape))
    axes = tuple(range(1, d + 1))
    for m in catalog(d):
        want = np.fft.ifftn(np.fft.fftn(stack, axes=axes) * m.symbol(g), axes=axes).real
        got = spectral.apply_symbol_stack(stack, m.symbol(g), d)
        for x, y, f in zip(got, want, stack):
            scale = max(np.abs(y).max(), np.abs(f).max())
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-13 * scale, err_msg=str(m))


def test_anti_hermitian_part_response_is_the_complex_residue():
    # the anti-Hermitian part alone gives the imaginary part of the complex
    # transform of the whole symbol, up to that transform's round-off
    g = GridSpec(2, 8, 2.0)
    v = np.random.default_rng(0).standard_normal(g.shape)
    for skew_size, raises in ((1e-3, True), (1e-13, False)):
        symbol = np.ones(g.shape, dtype=complex)
        symbol[1, 1] += skew_size * 1j
        full = np.fft.ifftn(np.fft.fftn(v) * symbol)
        _, skew = spectral.hermitian_parts(symbol, 2)
        assert np.count_nonzero(skew) == 2
        np.testing.assert_allclose(np.fft.ifftn(np.fft.fftn(v) * skew).imag, full.imag,
                                   rtol=0, atol=1e-15 * np.abs(v).max())
        if raises:
            with pytest.raises(spectral.TransformResidueError):
                spectral.apply_symbol_stack(v, symbol, 2)
        else:
            out = spectral.apply_symbol_stack(v, symbol, 2)
            np.testing.assert_allclose(out, full.real, rtol=0, atol=1e-13 * np.abs(v).max())
