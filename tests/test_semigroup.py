import dataclasses
import functools
import math

import numpy as np
import pytest

from rzlab import potentials, semigroup, spectral, verify
from rzlab.grid import Field, GridSpec


@pytest.fixture
def g1():
    return GridSpec(1, 32, 4.0)


def random_field(g, seed=0, nonneg=False):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.shape)
    if nonneg:
        v = v - v.min() + 0.1
    return Field(g, v)


def test_strang_zero_potential_is_heat(g1):
    f = random_field(g1)
    V = potentials.discretize_potential(potentials.zero(), g1)
    out = semigroup.evolve_stack(f.values, V, 0.7, 13)
    ref = spectral.apply_multiplier(f, spectral.heat(0.7))
    np.testing.assert_allclose(out, ref.values, rtol=1e-12, atol=1e-13)


def test_strang_constant_potential_exact(g1):
    f = random_field(g1, 1)
    V = potentials.discretize_potential(potentials.const(2.0), g1)
    out = semigroup.evolve_stack(f.values, V, 0.5, 7)
    ref = spectral.apply_multiplier(f, spectral.heat(0.5))
    np.testing.assert_allclose(out, math.exp(-1.0) * ref.values, rtol=1e-12, atol=1e-14)


def test_strang_step_halving_second_order(g1):
    V = potentials.discretize_potential(potentials.harmonic(), g1)
    f = random_field(g1, 2)
    op = semigroup.dense_schrodinger(V)
    t = 0.5
    ref = semigroup.matrix_function(op, lambda lam: np.exp(-t * lam)) @ f.flat()
    errs = []
    for steps in (25, 50, 100):
        out = semigroup.evolve_stack(f.values, V, t, steps)
        errs.append(np.linalg.norm(out.ravel() - ref))
    for e_coarse, e_fine in zip(errs, errs[1:]):
        assert 3.5 <= e_coarse / e_fine <= 4.5


def _unfused_strang(stack, V, spec, t, steps):
    """Reference splitting: both half-steps every step, complex FFT."""
    tau = t / steps
    half = np.exp(-0.5 * tau * V)
    sym = spectral.heat(tau).symbol(spec)
    axes = tuple(range(stack.ndim - spec.d, stack.ndim))
    u = stack
    for _ in range(steps):
        u = half * u
        u = np.fft.ifftn(np.fft.fftn(u, axes=axes) * sym, axes=axes).real
        u = half * u
    return u


@pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 8)])
@pytest.mark.parametrize("steps", [1, 2, 7, 64, 256])
@pytest.mark.parametrize("batch", [1, 3])
def test_fused_evolve_stack_matches_unfused_reference(d, n, steps, batch):
    g = GridSpec(d, n, 4.0)
    V = potentials.discretize_potential(potentials.ce3(), g).values
    V = Field(g, V + potentials.discretize_potential(potentials.harmonic(), g).values)
    stack = np.random.default_rng(d * 100 + steps).standard_normal((batch, *g.shape))
    got = semigroup.evolve_stack(stack, V, 0.35, steps)
    ref = _unfused_strang(stack, V.values, g, 0.35, steps)
    assert got.shape == stack.shape
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 8)])
@pytest.mark.parametrize("steps", [1, 2, 7, 64])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_time_array_equals_scalar_calls_exactly(d, n, steps, lead):
    g = GridSpec(d, n, 4.0)
    V = potentials.discretize_potential(potentials.ce3(), g).values
    V = Field(g, V + potentials.discretize_potential(potentials.harmonic(), g).values)
    stack = np.random.default_rng(d * 10 + steps).standard_normal((*lead, *g.shape))
    ts = np.array([0.0, 1e-6, 2.5e-3, 0.04, 0.35])
    got = semigroup.evolve_stack(stack, V, ts, steps)
    ref = np.stack([semigroup.evolve_stack(stack, V, t, steps) for t in ts])
    assert got.shape == (len(ts), *stack.shape)
    assert np.array_equal(got, ref)
    assert np.array_equal(got[0], stack)


@pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 8), (2, 64)])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_heat_step_matches_fft_heat_symbol(d, n, lead):
    g = GridSpec(d, n, 4.0)
    stack = np.random.default_rng(n + len(lead)).standard_normal((*lead, *g.shape))
    got = semigroup.evolve_stack(stack, Field(g, np.zeros(g.shape)), 0.35, 3)
    ref = spectral.apply_symbol_stack(stack, spectral.heat(0.35), g)
    assert got.shape == stack.shape
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [8, 32, 64])
@pytest.mark.parametrize("tau", [1e-4, 0.2, 5.0])
def test_heat_step_matrix_is_symmetric_and_keeps_the_mean(n, tau):
    g = GridSpec(1, n, 4.0)
    # row i is e_i after one heat step, so the rows form H_tau itself
    heat = semigroup.evolve_stack(np.eye(n), Field(g, np.zeros(g.shape)), tau, 1)
    assert np.array_equal(heat, heat.T)
    np.testing.assert_allclose(heat.sum(axis=0), 1.0, rtol=0, atol=1e-14)


def test_strang_self_consistency_and_domination(g1):
    V = potentials.discretize_potential(potentials.harmonic(), g1)
    f = random_field(g1, 3, nonneg=True)
    t = 0.5
    a = semigroup.evolve_stack(f.values, V, t, 64)
    b = semigroup.evolve_stack(f.values, V, t, 128)
    rel = np.linalg.norm(a - b) / np.linalg.norm(b)
    assert rel <= 1e-4
    heat = spectral.apply_multiplier(f, spectral.heat(t))
    assert np.max(a - heat.values) <= 1e-8


def test_strang_positivity_and_mass(g1):
    V = potentials.discretize_potential(potentials.ce3(), g1)
    f = random_field(g1, 4, nonneg=True)
    for t in (0.1, 0.5, 1.0):
        out = semigroup.evolve_stack(f.values, V, t, semigroup.default_steps(t))
        assert out.min() >= -1e-10 * f.values.max()
        assert out.sum() <= f.values.sum() * (1 + 1e-8)


def test_strang_semigroup_property(g1):
    V = potentials.discretize_potential(potentials.harmonic(), g1)
    f = random_field(g1, 5)
    once = semigroup.evolve_stack(f.values, V, 0.4, 40)
    twice = semigroup.evolve_stack(semigroup.evolve_stack(f.values, V, 0.2, 20), V, 0.2, 20)
    rel = np.linalg.norm(once - twice) / np.linalg.norm(once)
    assert rel <= 1e-6


def test_dense_eigenvalues_zero_potential(g1):
    V = potentials.discretize_potential(potentials.zero(), g1)
    op = semigroup.dense_schrodinger(V)
    k = np.fft.fftfreq(g1.n) * g1.n
    expect = np.sort((np.pi / g1.R * k) ** 2)
    np.testing.assert_allclose(np.sort(op.eigenvalues), expect, atol=1e-10)


def test_dense_eigenvalues_constant_shift(g1):
    V = potentials.discretize_potential(potentials.const(3.0), g1)
    op = semigroup.dense_schrodinger(V)
    k = np.fft.fftfreq(g1.n) * g1.n
    expect = np.sort((np.pi / g1.R * k) ** 2 + 3.0)
    np.testing.assert_allclose(np.sort(op.eigenvalues), expect, atol=1e-10)


def test_dense_positive_semidefinite(g1):
    rng = np.random.default_rng(6)
    V = Field(g1, rng.uniform(0, 3, g1.shape))
    op = semigroup.dense_schrodinger(V)
    assert op.eigenvalues.min() >= -1e-8
    recon = semigroup.matrix_function(op, lambda lam: lam)
    mat = semigroup.schrodinger_matrix(g1, V.values)
    assert np.max(np.abs(recon - mat)) <= 1e-8 * np.max(np.abs(mat))


def test_dense_cap_enforced():
    g = GridSpec(2, 16, 1.0)
    import os

    old = os.environ.get("RZLAB_DENSE_CAP")
    os.environ["RZLAB_DENSE_CAP"] = "100"
    try:
        with pytest.raises(semigroup.DenseCapError):
            semigroup.multiplier_matrix(g, spectral.laplacian())
    finally:
        if old is None:
            del os.environ["RZLAB_DENSE_CAP"]
        else:
            os.environ["RZLAB_DENSE_CAP"] = old


def test_matrix_function_identity(g1):
    V = potentials.discretize_potential(potentials.harmonic(), g1)
    op = semigroup.dense_schrodinger(V)
    recon = semigroup.matrix_function(op, lambda lam: lam)
    mat = semigroup.schrodinger_matrix(g1, V.values)
    assert np.max(np.abs(recon - mat)) <= 1e-8 * np.max(np.abs(mat))


def _off_kernel(phi):
    """phi, set to 0 on L's zero modes: the V = 0 rule of fracpow.dense_power."""

    def masked(lam):
        vals = np.zeros_like(lam)
        keep = ~semigroup.zero_modes(lam)
        vals[keep] = phi(lam[keep])
        return vals

    return masked


def test_matrix_function_inv_sqrt_matches_multiplier(g1):
    V = potentials.discretize_potential(potentials.zero(), g1)
    op = semigroup.dense_schrodinger(V)
    got = semigroup.matrix_function(op, _off_kernel(lambda lam: lam**-0.5))
    want = semigroup.multiplier_matrix(g1, spectral.inv_sqrt_laplacian())
    assert np.max(np.abs(got - want)) <= 1e-8


def test_matrix_function_rejects_nonfinite(g1):
    V = potentials.discretize_potential(potentials.zero(), g1)
    op = semigroup.dense_schrodinger(V)
    with pytest.raises(ValueError, match="not finite"):
        semigroup.matrix_function(op, lambda lam: np.where(lam > 1.0, np.inf, lam))


def test_apply_function_evaluates_phi_on_the_zero_mode(g1):
    # No zero-mode rule: lam^(-1/2) at V = 0 meets the zero eigenvalue.  Its
    # computed value is a rounding residue of either sign, so it is set to
    # exactly 0 here, where lam^(-1/2) is inf.
    V = potentials.discretize_potential(potentials.zero(), g1)
    op = semigroup.dense_schrodinger(V)
    (lam, u, idx), = op.blocks
    exact = dataclasses.replace(op, blocks=((np.where(semigroup.zero_modes(lam), 0.0, lam), u, idx),))
    x = random_field(g1).values[None]
    with pytest.raises(ValueError, match="not finite"), np.errstate(divide="ignore"):
        semigroup.apply_function(exact, lambda lam: lam**-0.5, x)


SEPARABLE = [potentials.zero(), potentials.const(2.0), potentials.harmonic()]


def _assembled_function(g, V, phi):
    """phi(L) by eigh of the assembled N x N matrix, the unfactored reference."""
    lam, q = np.linalg.eigh(semigroup.schrodinger_matrix(g, V.values))
    return (q * phi(lam)) @ q.T


@pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("pot", SEPARABLE, ids=lambda p: p.label())
def test_separable_factors_match_assembled_eigh(d, n, pot):
    g = GridSpec(d, n, 4.0)
    V = potentials.discretize_potential(pot, g)
    op = semigroup.dense_schrodinger(V)
    # per-axis eigenvectors, and the Kronecker-sum eigenvalues as one diagonal block
    assert [q.shape for q in op.bases] == [(n, n)] * d
    assert [(len(lam), u, idx) for lam, u, idx in op.blocks] == [(g.num_points, None, slice(None))]
    x = np.random.default_rng(d * n).standard_normal((3, *g.shape))
    x -= x.mean(axis=tuple(range(1, d + 1)), keepdims=True)
    for phi in (lambda lam: np.exp(-0.3 * lam), _off_kernel(lambda lam: lam**-0.5)):
        ref = _assembled_function(g, V, phi)
        got = semigroup.matrix_function(op, phi)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        applied = semigroup.apply_function(op, phi, x).reshape(3, -1)
        want = x.reshape(3, -1) @ ref
        assert np.linalg.norm(applied - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "pot",
    [potentials.ce1(0.25), potentials.ce2(4.0), potentials.ce3(), None],
    ids=["ce1", "ce2", "ce3", "uniform"],
)
def test_non_separable_potentials_take_one_factor(pot):
    g = GridSpec(2, 8, 4.0)
    if pot is None:
        V = Field(g, np.random.default_rng(12).uniform(0.0, 3.0, g.shape))
    else:
        V = potentials.discretize_potential(pot, g)
    op = semigroup.dense_schrodinger(V)
    if pot is None:  # no reflection symmetry: one block of order N on the grid
        assert op.bases == () and [len(lam) for lam, _, _ in op.blocks] == [g.num_points]
    else:  # even in each coordinate: parity sectors
        assert [q.shape for q in op.bases] == [(8, 8)] * 2 and len(op.blocks) == 4
    assert all(u is not None for _, u, _ in op.blocks)
    lam, _ = np.linalg.eigh(semigroup.schrodinger_matrix(g, V.values))
    np.testing.assert_allclose(np.sort(op.eigenvalues), lam, rtol=0, atol=1e-12 * np.abs(lam).max())


NON_SEPARABLE = [potentials.ce1(0.25), potentials.ce2(4.0), potentials.ce3()]


@pytest.mark.parametrize("d,n,R", [(2, 8, 4.0), (2, 16, 2.5), (3, 6, 1.5), (3, 12, 2.5)])
@pytest.mark.parametrize("pot", NON_SEPARABLE, ids=lambda p: p.label())
def test_parity_sectors_match_assembled_eigh(d, n, R, pot):
    # (3, 12, 2.5) is CE2's grid, with the non-dyadic spacing h = 5/12.
    g = GridSpec(d, n, R)
    V = potentials.discretize_potential(pot, g)
    op = semigroup.dense_schrodinger(V)
    assert [q.shape for q in op.bases] == [(n, n)] * d and len(op.blocks) == 2**d
    idx = np.concatenate([idx for _, _, idx in op.blocks])
    np.testing.assert_array_equal(np.sort(idx), np.arange(g.num_points))
    mat = semigroup.schrodinger_matrix(g, V.values)
    lam, q = np.linalg.eigh(mat)  # the assembled reference, as in _assembled_function
    x = np.random.default_rng(d * n).standard_normal((3, *g.shape))
    for phi in (lambda lam: np.exp(-0.3 * lam), lambda lam: lam**-0.5):
        ref = (q * phi(lam)) @ q.T
        got = semigroup.matrix_function(op, phi)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        applied = semigroup.apply_function(op, phi, x).reshape(3, -1)
        want = x.reshape(3, -1) @ ref
        assert np.linalg.norm(applied - want) <= 1e-12 * np.linalg.norm(want)
    recon = semigroup.matrix_function(op, lambda lam: lam)
    assert np.max(np.abs(recon - mat)) <= 1e-12 * np.max(np.abs(mat))


def test_ce2_on_a_non_dyadic_grid_is_reflection_symmetric_exactly():
    # h = 1/3: every mirror pair of samples is equal, so ce2 takes the sectors
    V = potentials.discretize_potential(potentials.ce2(4.0), GridSpec(3, 24, 4.0))
    assert semigroup._reflection_symmetric(V)


def test_one_ulp_breaks_reflection_symmetry():
    V = potentials.discretize_potential(potentials.ce2(4.0), GridSpec(3, 12, 2.5))
    assert semigroup._reflection_symmetric(V)
    vals = V.values.copy()
    vals[5, 6, 7] = np.nextafter(vals[5, 6, 7], np.inf)  # mirrors onto [7, 6, 5]
    assert not semigroup._reflection_symmetric(Field(V.spec, vals))


@pytest.mark.parametrize("case", ["uniform", "ce3_shifted"])
def test_reflection_asymmetric_potential_takes_one_factor(case):
    g = GridSpec(2, 8, 4.0)
    if case == "uniform":
        V = Field(g, np.random.default_rng(12).uniform(0.0, 3.0, g.shape))
    else:  # ce3 moved by one cell is even about x = h, not about 0
        V = potentials.discretize_potential(potentials.ce3(), g)
        V = Field(g, np.roll(V.values, 1, axis=0))
    op = semigroup.dense_schrodinger(V)
    assert op.bases == () and [len(lam) for lam, _, _ in op.blocks] == [g.num_points]


@pytest.mark.parametrize(
    "d,n,pot",
    [(1, 16, potentials.harmonic()), (2, 12, potentials.ce1(0.25)), (3, 8, potentials.ce3()),
     (2, 10, potentials.zero())],
    ids=["1d-harmonic", "2d-ce1", "3d-ce3", "2d-zero"],
)
def test_orbit_columns_read_each_reflection_orbit_once(d, n, pot):
    g = GridSpec(d, n, 2.5)
    cols, share, flip_axes = semigroup.orbit_columns(potentials.discretize_potential(pot, g))
    assert flip_axes == tuple(range(d))
    assert len(cols) == (n // 2 + 1) ** d and np.sum(share) * 2**d == g.num_points
    # send every point to its orbit's representative, min(k_a, n - k_a) per axis:
    # the representatives are the columns read, and a column's orbit has
    # 2^d * share points
    k = np.indices(g.shape).reshape(d, -1)
    counts = np.bincount(np.ravel_multi_index(tuple(np.minimum(k, n - k)), g.shape))
    assert np.array_equal(np.flatnonzero(counts), cols)
    assert np.array_equal(counts[cols], share * 2**d)


@pytest.mark.parametrize("case", ["uniform", "even_along_axis_0", "ce3_shifted"])
def test_orbit_columns_of_any_other_potential_are_every_column(case):
    g = GridSpec(2, 8, 4.0)
    u = np.random.default_rng(12).uniform(0.0, 3.0, g.shape)
    if case == "uniform":
        V = Field(g, u)
    elif case == "even_along_axis_0":
        V = Field(g, u + np.take(u, -np.arange(g.n) % g.n, axis=0))
    else:
        V = potentials.discretize_potential(potentials.ce3(), g)
        V = Field(g, np.roll(V.values, 1, axis=0))
    cols, share, flip_axes = semigroup.orbit_columns(V)
    assert np.array_equal(cols, np.arange(g.num_points))
    assert np.array_equal(share, np.ones(g.num_points)) and flip_axes == ()


@pytest.mark.parametrize("rule", ["zero", "apply"])  # phi off the kernel, or phi everywhere
@pytest.mark.parametrize(
    "pot,layout",
    [(potentials.zero(), (2, 1)), (potentials.harmonic(), (2, 1)),
     (potentials.ce1(0.25), (2, 4)), (None, (0, 1))],
    ids=["zero", "sep", "sectors", "uniform"],
)
def test_matrix_function_columns_match_assembled_eigh(pot, layout, rule):
    g = GridSpec(2, 8, 4.0)
    if pot is None:
        V = Field(g, np.random.default_rng(12).uniform(0.0, 3.0, g.shape))
    else:
        V = potentials.discretize_potential(pot, g)
    op = semigroup.dense_schrodinger(V)
    assert (len(op.bases), len(op.blocks)) == layout
    phi = lambda lam: np.exp(-0.3 * lam) * (1.0 + lam)
    if rule == "zero":
        phi = _off_kernel(phi)
    ref = _assembled_function(g, V, phi)
    for cols, want in ((None, ref), (5, ref[:, [5]]), ([40, 3, 63, 17], ref[:, [40, 3, 63, 17]])):
        got = semigroup.matrix_function(op, phi, cols=cols)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "pot", [potentials.harmonic(), potentials.ce3(), None], ids=["sep", "whole", "uniform"]
)
def test_apply_function_equals_matrix_function(pot):
    g = GridSpec(2, 8, 4.0)
    if pot is None:
        V = Field(g, np.random.default_rng(12).uniform(0.0, 3.0, g.shape))
    else:
        V = potentials.discretize_potential(pot, g)
    op = semigroup.dense_schrodinger(V)
    x = np.random.default_rng(4).standard_normal((5, *g.shape))
    phi = lambda lam: lam**-0.5
    got = semigroup.apply_function(op, phi, x)
    want = (x.reshape(5, -1) @ semigroup.matrix_function(op, phi)).reshape(x.shape)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_dense_cache_bounded_and_drops_failures(monkeypatch):
    g = GridSpec(1, 16, 4.0)
    V = Field(g, np.random.default_rng(20261020).uniform(0.0, 2.0, g.shape))
    semigroup._factor.cache_clear()

    def failing_eigh(a, *args, **kwargs):
        raise np.linalg.LinAlgError("boom")

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(np.linalg.LinAlgError, match="boom"):
            semigroup.dense_schrodinger(V)
    assert semigroup._factor.cache_info().currsize == 0
    op = semigroup.dense_schrodinger(V)  # the failed build was not cached
    assert semigroup.dense_schrodinger(V) is op
    assert semigroup._factor.cache_info()[:2] == (1, 2)  # hits, misses
    verify.run_suite("core", verify.RunConfig())
    info = semigroup._factor.cache_info()
    assert info.maxsize == 4 and info.currsize <= 4 < info.misses


def test_dense_cache_holds_core_suite_keys():
    # Dense keys of the core suite from THEOREM on: d = 1, 2, 3, then
    # WEAK11 at n and 2n on d = 2, then VHALF at d = 1, 2, 3.
    builds = []
    build = functools.lru_cache(maxsize=semigroup._factor.cache_info().maxsize)(builds.append)
    for key in ["catalog", "d1", "d2", "d3", "d2", "d2n32", "d1", "d2", "d3"]:
        build(key)
    assert builds == ["catalog", "d1", "d2", "d3", "d2n32"]


def test_dense_semigroup_is_splitting_limit(g1):
    V = potentials.discretize_potential(potentials.harmonic(), g1)
    op = semigroup.dense_schrodinger(V)
    f = random_field(g1, 7)
    t = 0.3
    ref = semigroup.matrix_function(op, lambda lam: np.exp(-t * lam)) @ f.flat()
    out = semigroup.evolve_stack(f.values, V, t, 2000)
    assert np.linalg.norm(out.ravel() - ref) / np.linalg.norm(ref) <= 1e-4


def test_d1_strang_power_reaches_dense_semigroup_at_fine_steps(g1):
    # 1e5 steps of tau = 3e-6: a splitting error near 1e-11, which a
    # rounding error growing with the step count would swamp
    V = potentials.discretize_potential(potentials.harmonic(), g1)
    f = random_field(g1, 7)
    t = 0.3
    op = semigroup.dense_schrodinger(V)
    ref = semigroup.matrix_function(op, lambda lam: np.exp(-t * lam)) @ f.flat()
    out = semigroup.evolve_stack(f.values, V, t, 100_000)
    assert np.linalg.norm(out.ravel() - ref) / np.linalg.norm(ref) <= 1e-10


# Feynman-Kac


def fk_one(spec, x, y, t, paths, seed):
    """(estimate, stderr) of one potential and one triple: a 1 x 1 table."""
    table = semigroup.fk_kernel_estimate((spec,), [x], [y], [t], paths, seed)
    assert table.shape == (1, 1, 2)
    return tuple(table[0, 0].tolist())


def test_fk_zero_potential_exact():
    est, err = fk_one(potentials.zero(), [0.3], [-0.2], 0.5, 50, 1)
    assert err == 0.0
    assert est == pytest.approx(semigroup.heat_kernel_free(np.array([0.3]), np.array([-0.2]), 0.5))


def test_fk_constant_potential_exact():
    c, t = 2.0, 0.5
    est, err = fk_one(potentials.const(c), [0.0], [0.4], t, 200, 2)
    expect = math.exp(-c * t) * semigroup.heat_kernel_free(np.array([0.0]), np.array([0.4]), t)
    assert est == pytest.approx(expect, rel=1e-12)
    # weights are path-independent; stderr is pure cancellation round-off
    assert err <= 1e-8 * est


def test_fk_harmonic_matches_dense_kernel():
    g = GridSpec(1, 64, 4.0)
    V = potentials.discretize_potential(potentials.harmonic(), g)
    op = semigroup.dense_schrodinger(V)
    t = 0.25
    mat = semigroup.matrix_function(op, lambda lam: np.exp(-t * lam))
    i0 = g.flat_index(g.nearest_index([0.0]))
    dense_val = mat[i0, i0] / g.cell_volume
    est, err = fk_one(potentials.harmonic(), [0.0], [0.0], t, 20000, 11)
    assert abs(est - dense_val) <= 3.0 * err


def test_fk_deterministic():
    args = ((potentials.ce3(),), [[0.1, 0.0, 0.0]], [[0.0, 0.2, 0.0]], [0.3], 5000, 9)
    assert np.array_equal(semigroup.fk_kernel_estimate(*args), semigroup.fk_kernel_estimate(*args))


def test_fk_rejects_bad_args():
    with pytest.raises(ValueError):
        fk_one(potentials.zero(), [0.0], [0.0], 0.0, 10, 1)
    with pytest.raises(ValueError):
        fk_one(potentials.zero(), [0.0], [0.0], 0.5, 0, 1)
    with pytest.raises(ValueError):  # two endpoints, one time
        semigroup.fk_kernel_estimate((potentials.zero(),), [[0.0], [0.1]], [[0.0], [0.1]],
                                     [0.5], 10, 1)


FK_SPECS = (potentials.zero(), potentials.const(2.0), potentials.harmonic(), potentials.ce3())
FK_TABLE_CASES = pytest.mark.parametrize("triples,paths,seed", [
    ([([0.0], [0.0], 0.25), ([0.5], [-0.25], 0.4), ([1.0], [1.0], 0.1)], 20000, 1234),
    ([([0.0, 0.5], [0.25, -0.5], 0.4), ([0.3, 0.1], [0.0, 0.0], 0.7)], 10000, 7),
], ids=["d1", "d2-partial-chunk"])


def _per_triple_fk(specs, x, y, t, paths, seed, slices=semigroup.DEFAULT_BRIDGE_SLICES):
    """Reference (estimate, stderr) per potential: the bridge built at time t, its own cumsum."""
    x, y = np.atleast_1d(np.asarray(x, float)), np.atleast_1d(np.asarray(y, float))
    times = (np.arange(slices) + 0.5) * (t / slices)
    sigma = np.sqrt(2.0 * np.diff(np.concatenate([[0.0], times, [t]])))[None, :, None]
    frac = (times / t)[None, :, None]
    rows = max(1, semigroup.FK_BLOCK_ELEMENTS // ((slices + 1) * len(x)))
    sums = np.zeros((len(specs), 2))
    for ci, start in enumerate(range(0, paths, semigroup.FK_CHUNK)):
        count = min(semigroup.FK_CHUNK, paths - start)
        rng = np.random.default_rng([seed, ci])
        weights = np.empty((len(specs), count))
        for r in range(0, count, rows):
            z = rng.standard_normal((min(rows, count - r), slices + 1, len(x)))
            w = np.cumsum(z * sigma, axis=1)
            bridge = x + frac * (y - x) + w[:, :-1, :] - frac * w[:, -1:, :]
            for i, spec in enumerate(specs):
                pot = potentials.eval_capped(spec, bridge)
                weights[i, r : r + len(z)] = np.exp(-(t / slices) * pot.sum(axis=1))
        sums += np.stack([weights.sum(axis=1), (weights**2).sum(axis=1)], axis=1)
    mean = sums[:, 0] / paths
    var = np.maximum(0.0, (sums[:, 1] - paths * mean**2) / (paths - 1))
    return semigroup.heat_kernel_free(x, y, t) * np.stack([mean, np.sqrt(var / paths)], axis=1)


@FK_TABLE_CASES
def test_fk_table_equals_single_estimates_bit_for_bit(triples, paths, seed):
    table = semigroup.fk_kernel_estimate(FK_SPECS, *zip(*triples), paths, seed)
    assert table.shape == (len(FK_SPECS), len(triples), 2)
    for i, spec in enumerate(FK_SPECS):
        for j, (x, y, t) in enumerate(triples):
            assert tuple(table[i, j].tolist()) == fk_one(spec, x, y, t, paths, seed)


@FK_TABLE_CASES
def test_fk_unit_bridge_matches_per_triple_bridge(triples, paths, seed):
    table = semigroup.fk_kernel_estimate(FK_SPECS, *zip(*triples), paths, seed)
    for j, (x, y, t) in enumerate(triples):
        ref = _per_triple_fk(FK_SPECS, x, y, t, paths, seed)
        np.testing.assert_allclose(table[:, j], ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("block", [512, 1000, 2**20])
def test_fk_row_blocks_do_not_move_the_estimates(monkeypatch, block):
    args = ((potentials.ce3(),), [[0.1, 0.2]], [[0.3, -0.1]], [0.3], 9000, 5)
    ref = semigroup.fk_kernel_estimate(*args)
    monkeypatch.setattr(semigroup, "FK_BLOCK_ELEMENTS", block)
    assert np.array_equal(semigroup.fk_kernel_estimate(*args), ref)


def test_fk_table_rejects_triples_of_different_dimension():
    with pytest.raises(ValueError, match="same dimension"):
        semigroup.fk_kernel_estimate(FK_SPECS, ([0.0], [0.0, 0.0]), ([0.0], [0.0, 0.0]),
                                     (0.1, 0.1), 10, 1)
