import math

import numpy as np
import pytest

from rzlab import fracpow, potentials, semigroup, spectral, verify
from rzlab.grid import Field, GridSpec


def mean_zero_field(g, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.shape)
    v -= v.mean()
    return Field(g, v / np.linalg.norm(v))


def dense_matrix(g, V, power):
    """N x N matrix of L^power: fracpow.dense_power on the unit fields."""
    N = g.num_points
    return fracpow.dense_power(np.eye(N).reshape(N, *g.shape), V, power).reshape(N, N).T


def test_constants():
    assert fracpow.C1 == pytest.approx(0.5641895835477563, rel=1e-15)
    assert fracpow.C2 == pytest.approx(-0.28209479177387814, rel=1e-15)
    assert fracpow.C1 == pytest.approx(-2.0 * fracpow.C2, rel=1e-15)
    assert fracpow.C1 > 0 > fracpow.C2


def test_scalar_identity_examples():
    q = fracpow.build_quadrature((-1.0,), (0.5, 20.0))
    assert q.scalar_apply(-1.0, 1.0)[0] == pytest.approx(1.0, abs=1e-6)
    q = fracpow.build_quadrature((-0.5,), (0.5, 20.0))
    assert q.scalar_apply(-0.5, 4.0)[0] == pytest.approx(0.5, abs=1e-6)
    q = fracpow.build_quadrature((0.5,), (0.5, 20.0))
    assert q.scalar_apply(0.5, 9.0)[0] == pytest.approx(3.0, abs=1e-5)


def test_rule_refuses_a_power_it_was_not_built_for():
    q = fracpow.build_quadrature((-0.5,), (0.5, 20.0))
    with pytest.raises(ValueError, match="not 0.5"):
        q.scalar_apply(0.5, 9.0)


@pytest.mark.parametrize("power", [-0.5, -1.0, 0.5])
def test_quadrature_structure_and_range(power):
    q = fracpow.build_quadrature((power,), (0.05, 2000.0))
    assert np.all(np.diff(q.nodes) > 0)
    assert np.all(q.weights > 0)
    assert q.nodes[0] > 0 and q.step > 0
    assert q.max_identity_error() <= 1e-6


def test_quadrature_rejects_bad_range():
    with pytest.raises(ValueError):
        fracpow.build_quadrature((-0.5,), (0.0, 1.0))
    with pytest.raises(ValueError):
        fracpow.build_quadrature((-0.25,), (0.5, 1.0))
    with pytest.raises(ValueError, match="tuple"):
        fracpow.build_quadrature(-0.5, (0.5, 1.0))  # a bare float is not a tuple of powers
    with pytest.raises(ValueError):
        fracpow.build_quadrature((), (0.5, 1.0))


def test_unreachable_tolerance_raises(monkeypatch):
    monkeypatch.setattr(fracpow, "QUAD_MAX_NODES", 120)
    with pytest.raises(fracpow.QuadratureBuildError, match="more than 120 nodes"):
        fracpow.build_quadrature((0.5,), (1e-9, 1e9), tol=1e-6)


@pytest.mark.parametrize("tol", [1e-9, 1e-10])
@pytest.mark.parametrize("powers", [(0.5,), fracpow.POWERS], ids=str)
def test_half_power_identity_reaches_tight_tolerances(powers, tol):
    # e^{-lam t} - 1 formed by subtraction cancelled at small lam t, and
    # these builds raised QuadratureBuildError; expm1 gives 255 and 281
    # nodes for (0.5,)
    quad = fracpow.build_quadrature(powers, (0.1427, 158.3), tol)
    assert len(quad.nodes) <= 300
    assert quad.max_identity_error() <= tol


def test_frac_power_zero_potential_matches_multiplier():
    g = GridSpec(1, 32, 4.0)
    f = mean_zero_field(g)
    V = potentials.discretize_potential(potentials.zero(), g)
    out = fracpow.frac_power_apply(f, V, -0.5)
    ref = spectral.apply_multiplier(f, spectral.inv_sqrt_laplacian())
    assert np.linalg.norm(out.values - ref.values) <= 1e-5 * np.linalg.norm(ref.values)


def test_frac_power_half_inverts_neg_half():
    g = GridSpec(1, 32, 4.0)
    f = mean_zero_field(g, 1)
    V = potentials.discretize_potential(potentials.zero(), g)
    half = fracpow.frac_power_apply(f, V, -0.5)
    back = fracpow.frac_power_apply(half, V, 0.5)
    assert np.linalg.norm(back.values - f.values) <= 1e-4 * np.linalg.norm(f.values)


@pytest.mark.parametrize("power", fracpow.POWERS)
def test_frac_power_zero_potential_takes_a_field_with_a_mean(power):
    # V = 0: the walk gives dense_power's pseudo-inverse, 0 on the constants
    g = GridSpec(1, 32, 4.0)
    V = potentials.discretize_potential(potentials.zero(), g)
    f = Field(g, mean_zero_field(g, 4).values + 0.3)
    out = fracpow.frac_power_apply(f, V, power)
    ref = fracpow.dense_power(f.values[None], V, power)[0]
    assert np.linalg.norm(out.values - ref) <= 1e-6 * np.linalg.norm(ref)


@pytest.mark.parametrize("d,n", [(1, 16), (2, 16)])
def test_walk_zero_potential_matches_dense_pseudo_inverse(d, n):
    # At d = 1, n = 16 the walk on these fields was off by 278 %, 1376 % and
    # 0.72 % while its splitting estimate read <= 2e-11.
    g = GridSpec(d, n, 4.0)
    V = potentials.discretize_potential(potentials.zero(), g)
    means = np.reshape([0.5, -1.0, 2.0], (3, *(1,) * d))
    stack = np.random.default_rng(d).standard_normal((3, *g.shape)) + means
    got, est = fracpow.subordinated_apply_stack(stack, V, fracpow.POWERS)
    for power, out in zip(fracpow.POWERS, got):
        ref = fracpow.dense_power(stack, V, power)
        err = np.linalg.norm((out - ref).reshape(3, -1), axis=1) / np.linalg.norm(
            ref.reshape(3, -1), axis=1
        )
        assert err.max() <= 1e-6, (power, err)


@pytest.mark.parametrize("power", [-0.5, -1.0, 0.5])
def test_frac_power_matches_dense_oracle(power):
    g = GridSpec(1, 32, 4.0)
    f = mean_zero_field(g, 2)
    V = potentials.discretize_potential(potentials.harmonic(), g)
    out = fracpow.frac_power_apply(f, V, power)
    ref = fracpow.dense_power(f.values[None], V, power)[0].ravel()
    assert np.linalg.norm(out.flat() - ref) <= 1e-4 * np.linalg.norm(ref)


def test_step_controller_halves_the_strang_work(monkeypatch):
    # The fixed-step loop made 15,576 Strang steps here (coarse + fine);
    # the worst QUAD_VS_DENSE entry, d1 ce2(4) at power -1.
    g = GridSpec(1, 32, 4.0)
    V = potentials.discretize_potential(potentials.ce2(4.0), g)
    stack = verify.trial_family(g, verify.rng_for(1, "QUAD_VS_DENSE"), 8, structured=False)
    steps = []
    evolve = semigroup.evolve_stack

    def counting(stack, V, t, n_steps):
        steps.append(np.size(t) * n_steps)  # a time array takes n_steps per time
        return evolve(stack, V, t, n_steps)

    monkeypatch.setattr(semigroup, "evolve_stack", counting)
    got, est = fracpow.subordinated_apply_stack(stack, V, -1.0)
    ref = fracpow.dense_power(stack, V, -1.0)
    err = np.linalg.norm((got - ref).reshape(8, -1), axis=1) / np.linalg.norm(
        ref.reshape(8, -1), axis=1
    )
    assert sum(steps) <= 15576 // 2
    assert err.max() <= 1e-4
    assert est.shape == stack.shape and np.all(np.isfinite(est))


def test_direct_node_rule_keeps_quad_vs_dense_accuracy():
    # QUAD_VS_DENSE's d1 harmonic power -1/2 entry: 4.9e-7 when every node
    # was reached incrementally, 6.7e-6 with direct steps up to tau0.
    g = GridSpec(1, 32, 4.0)
    V = potentials.discretize_potential(potentials.harmonic(), g)
    rng = verify.rng_for(1234, "QUAD_VS_DENSE")
    stack = verify.trial_family(g, rng, 8, mean_zero=True, structured=False)
    got, _ = fracpow.subordinated_apply_stack(stack, V, -0.5, tol=1e-6)
    ref = fracpow.dense_power(stack, V, -0.5)
    err = np.linalg.norm((got - ref).reshape(8, -1), axis=1) / np.linalg.norm(
        ref.reshape(8, -1), axis=1
    )
    assert err.max() <= 1e-6


def test_shared_rule_passes_every_power_identity():
    quad = fracpow.build_quadrature(fracpow.POWERS, (0.14, 2500.0), tol=1e-6)
    assert quad.powers == fracpow.POWERS
    lams = np.geomspace(0.14, 2500.0, fracpow.QUAD_CHECK_LAMBDAS)
    errs = [np.max(np.abs(quad.scalar_apply(p, lams) - lams**p) / lams**p) for p in quad.powers]
    assert quad.max_identity_error() == max(errs) <= 1e-6


@pytest.mark.parametrize("spectral_range", [(0.027, 79.0), (0.1427, 158.3), (0.05, 2000.0)])
@pytest.mark.parametrize("powers", [(-0.5,), (-1.0,), (0.5,), fracpow.POWERS], ids=str)
def test_identity_holds_between_the_check_points(powers, spectral_range):
    # the trapezoid's error ripples in ln lambda; 2,000 lambdas see between
    # the points the build checks
    quad = fracpow.build_quadrature(powers, spectral_range, 1e-6)
    lams = np.geomspace(*spectral_range, 2000)
    for p in powers:
        err = np.max(np.abs(quad.scalar_apply(p, lams) - lams**p) / lams**p)
        assert err <= 1e-6, (p, err)


def test_log_trapezoid_rule_walks_few_nodes(monkeypatch):
    # The composite Gauss-Legendre rule had 660 nodes here, 121 of them
    # walked, and the walk below made 254 evolve_stack calls.
    quad = fracpow.build_quadrature(fracpow.POWERS, (0.1427, 158.3), 1e-6)
    t, tau0 = quad.nodes, fracpow.DEFAULT_SUBORDINATION_STEP
    assert len(t) <= 150
    assert np.count_nonzero((t > tau0 * fracpow.DIRECT_NODE_FRACTION) & (t <= 37.0 / 0.1427)) <= 30
    g = GridSpec(1, 32, 4.0)
    V = potentials.discretize_potential(potentials.ce2(4.0), g)
    rng = verify.rng_for(1234, "QUAD_VS_DENSE")
    stack = verify.trial_family(g, rng, 8, structured=False)
    calls = []
    evolve = semigroup.evolve_stack

    def counting(*args):
        calls.append(1)
        return evolve(*args)

    monkeypatch.setattr(semigroup, "evolve_stack", counting)
    fracpow.subordinated_apply_stack(stack, V, fracpow.POWERS)
    assert len(calls) <= 60


def test_walk_builds_its_rule_from_the_spectral_bounds_of_v(monkeypatch):
    g = GridSpec(1, 16, 4.0)
    V = potentials.discretize_potential(potentials.harmonic(), g)
    built = []
    build = fracpow.build_quadrature

    def recording(powers, spectral_range, tol):
        built.append((powers, spectral_range, tol))
        return build(powers, spectral_range, tol)

    monkeypatch.setattr(fracpow, "build_quadrature", recording)
    fracpow.subordinated_apply_stack(mean_zero_field(g).values[None], V, -0.5, tol=1e-5)
    fracpow.subordinated_apply_stack(mean_zero_field(g).values[None], V, fracpow.POWERS)
    bounds = fracpow.spectral_bounds(V)
    assert built == [((-0.5,), bounds, 1e-5), (fracpow.POWERS, bounds, 1e-6)]


def test_frac_power_rejects_a_potential_on_another_grid():
    V = potentials.discretize_potential(potentials.harmonic(), GridSpec(1, 32, 2.0))
    with pytest.raises(ValueError, match="grid"):
        fracpow.frac_power_apply(mean_zero_field(GridSpec(1, 32, 4.0)), V, -0.5)


@pytest.mark.parametrize("pot", [potentials.harmonic(), potentials.ce2(4.0)], ids=str)
def test_one_walk_serves_every_power(pot):
    g = GridSpec(1, 32, 4.0)
    V = potentials.discretize_potential(pot, g)
    rng = verify.rng_for(1234, "QUAD_VS_DENSE")
    stack = verify.trial_family(g, rng, 4, structured=False)
    got, est = fracpow.subordinated_apply_stack(stack, V, fracpow.POWERS)
    assert got.shape == est.shape == (3, *stack.shape)
    for power, out in zip(fracpow.POWERS, got):
        ref = fracpow.dense_power(stack, V, power)
        err = np.linalg.norm((out - ref).reshape(4, -1), axis=1) / np.linalg.norm(
            ref.reshape(4, -1), axis=1
        )
        assert err.max() <= 1e-4


@pytest.mark.parametrize("power", fracpow.POWERS)
def test_float_power_is_the_one_element_walk(power):
    g = GridSpec(1, 32, 4.0)
    V = potentials.discretize_potential(potentials.ce3(), g)
    stack = mean_zero_field(g, 5).values[None]
    got, est = fracpow.subordinated_apply_stack(stack, V, power)
    walk, walk_est = fracpow.subordinated_apply_stack(stack, V, (power,))
    assert np.array_equal(got, walk[0]) and np.array_equal(est, walk_est[0])


@pytest.mark.parametrize("d,n,pot", [(1, 32, potentials.ce2(4.0)), (2, 16, potentials.harmonic())],
                         ids=["d1-ce2", "d2-harmonic"])
def test_walk_sums_match_a_per_node_reference(monkeypatch, d, n, pot):
    # The walk forms its node sums as array products; the reference adds
    # c_i * state_i node by node over the same Strang states.
    g = GridSpec(d, n, 4.0)
    V = potentials.discretize_potential(pot, g)
    rng = verify.rng_for(1234, "QUAD_VS_DENSE")
    stack = verify.trial_family(g, rng, 4, structured=False)
    calls = []  # (steps, states): a coarse call, then its fine twin
    evolve = semigroup.evolve_stack

    def recording(start, V, t, n_steps):
        out = evolve(start, V, t, n_steps)
        calls.append((n_steps, out if np.ndim(t) else out[None]))
        return out

    monkeypatch.setattr(semigroup, "evolve_stack", recording)
    got, _ = fracpow.subordinated_apply_stack(stack, V, fracpow.POWERS)
    assert all(2 * c == f for (c, _), (f, _) in zip(calls[0::2], calls[1::2]))
    coarse = np.concatenate([out for _, out in calls[0::2]])
    fine = np.concatenate([out for _, out in calls[1::2]])
    quad = fracpow.build_quadrature(fracpow.POWERS, fracpow.spectral_bounds(V), 1e-6)
    t, w = quad.nodes, quad.weights
    coefs = {-0.5: w * fracpow.C1 / np.sqrt(t), -1.0: w, 0.5: w * fracpow.C2 * t**-1.5}
    reached = len(coarse)  # the nodes past the horizon take e^{-tL} f as 0
    assert len(fine) == reached < len(t)
    for k, power in enumerate(fracpow.POWERS):
        shift = stack if power == 0.5 else 0.0
        sums = []
        for states in (coarse, fine):
            acc = 0.0
            for i, c in enumerate(coefs[power]):
                acc = acc + c * ((states[i] if i < reached else 0.0) - shift)
            sums.append(acc)
        ref = (4.0 * sums[1] - sums[0]) / 3.0
        err = np.linalg.norm(got[k] - ref) / np.linalg.norm(ref)
        assert err <= (1e-8 if power == 0.5 else 1e-12), (power, err)


def test_embedded_estimate_vanishes_for_constant_potential():
    # Strang is exact for constant V, so the fine and coarse sums agree.
    g = GridSpec(1, 32, 4.0)
    V = potentials.discretize_potential(potentials.const(2.0), g)
    f = mean_zero_field(g, 3)
    got, est = fracpow.subordinated_apply_stack(f.values[None], V, -0.5)
    assert np.linalg.norm(est) <= 1e-12 * np.linalg.norm(got)


def test_dense_green_composition():
    g = GridSpec(1, 64, 4.0)
    V = potentials.discretize_potential(potentials.harmonic(), g)
    half, full = dense_matrix(g, V, -0.5), dense_matrix(g, V, -1.0)
    assert np.linalg.norm(half @ half - full) <= 1e-10 * np.linalg.norm(full)


def test_dense_green_nonnegative_and_dominated():
    # On the torus no positive free Green kernel exists (the zero mode
    # never decays), so pointwise domination is checked on finite-horizon
    # kernels int_0^T: the statement the semigroup comparison integrates.
    g = GridSpec(1, 32, 4.0)
    V = potentials.discretize_potential(potentials.harmonic(), g)
    g_v = dense_matrix(g, V, -1.0) / g.cell_volume
    assert g_v.min() >= -1e-8 * np.abs(g_v).max()

    V0 = potentials.discretize_potential(potentials.zero(), g)
    op_v = semigroup.dense_schrodinger(V)
    op_0 = semigroup.dense_schrodinger(V0)
    T = 5.0

    def horizon(lam):
        lam = np.asarray(lam)
        safe = np.where(np.abs(lam) > 1e-12, lam, 1.0)
        return np.where(np.abs(lam) > 1e-12, (1.0 - np.exp(-T * lam)) / safe, T)

    G_v = semigroup.matrix_function(op_v, horizon) / g.cell_volume
    G_0 = semigroup.matrix_function(op_0, horizon) / g.cell_volume
    assert np.max(G_v - G_0) <= 1e-8 * np.abs(G_0).max()


def test_dense_green_constant_potential():
    g = GridSpec(1, 32, 4.0)
    c = 2.0
    V = potentials.discretize_potential(potentials.const(c), g)
    G = dense_matrix(g, V, -1.0) / g.cell_volume
    ones = np.ones(g.num_points)
    applied = G @ (ones * g.cell_volume)
    np.testing.assert_allclose(applied, 1.0 / c, rtol=1e-10)


def test_green_mass_zero_and_const():
    g = GridSpec(1, 32, 4.0)
    V0 = potentials.discretize_potential(potentials.zero(), g)
    assert fracpow.green_mass_all(V0)[g.flat_index((0,))] == 0.0
    V = potentials.discretize_potential(potentials.const(2.0), g)
    masses = fracpow.green_mass_all(V)
    for y in (0, 5, 17):
        assert masses[y] == pytest.approx(1.0, abs=1e-10)


def test_green_mass_random_potentials_bounded():
    g = GridSpec(1, 32, 4.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        V = Field(g, rng.uniform(0.0, 5.0, g.shape))
        masses = fracpow.green_mass_all(V)
        ys = rng.integers(0, g.num_points, 5)
        assert np.all(masses[ys] <= 1.0 + 1e-8)


def test_green_mass_matches_materialized_kernel():
    g = GridSpec(2, 8, 4.0)
    V = potentials.discretize_potential(potentials.ce3(), g)
    G = dense_matrix(g, V, -1.0) / g.cell_volume
    want = (V.flat() @ G) * g.cell_volume
    got = fracpow.green_mass_all(V)
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize(
    "d,n,pot",
    [(1, 32, potentials.harmonic()), (2, 8, potentials.ce3()), (2, 16, potentials.ce1(0.25))],
)
def test_green_mass_solve_matches_eigenbasis_inverse(d, n, pot):
    g = GridSpec(d, n, 4.0)
    V = potentials.discretize_potential(pot, g)
    want = fracpow.dense_power(V.values[None], V, -1.0)[0].ravel()
    got = fracpow.green_mass_all(V)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_green_mass_rejects_bad_potential_and_large_grid(monkeypatch):
    g = GridSpec(1, 16, 4.0)
    neg = np.zeros(g.shape)
    neg[3] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        fracpow.green_mass_all(Field(g, neg))
    monkeypatch.setenv("RZLAB_DENSE_CAP", str(g.num_points - 1))
    with pytest.raises(semigroup.DenseCapError):
        fracpow.green_mass_all(potentials.discretize_potential(potentials.const(2.0), g))


def test_perturbation_kernel_zero_potential_has_the_column_mass_of_every_v():
    # V = 0: sqrt(-Delta) L^(-1/2) is I minus the projection on the
    # constants, so W is that projection over |c2|, constant and positive.
    g = GridSpec(1, 16, 2.0)
    V = potentials.discretize_potential(potentials.zero(), g)
    W = fracpow.perturbation_kernel(V)
    assert W.max_column_mass == pytest.approx(2.0 * math.sqrt(math.pi), abs=1e-10)
    assert W.min_entry > 0


@pytest.mark.parametrize("pot", [potentials.const(2.0), potentials.harmonic(), potentials.ce3()])
def test_perturbation_kernel_invariants_1d(pot):
    g = GridSpec(1, 32, 4.0)
    V = potentials.discretize_potential(pot, g)
    W = fracpow.perturbation_kernel(V)
    assert W.min_entry >= -1e-8 * W.max_abs_entry
    assert W.max_column_mass <= 2.0 * math.sqrt(math.pi) + 1e-6


@pytest.mark.parametrize(
    "d,n,pot,layout,rows",
    [(1, 32, potentials.harmonic(), (0, 1), 17), (2, 18, potentials.harmonic(), (2, 1), 100),
     (2, 18, potentials.ce1(0.25), (2, 4), 100), (2, 18, "uniform", (0, 1), 324),
     (3, 8, potentials.ce3(), (3, 8), 125), (1, 24, potentials.ce2(4.0), (0, 1), 13),
     (2, 18, "even_along_axis_0", (0, 1), 324)],
    ids=["1d-harmonic", "2d-harmonic", "2d-ce1", "2d-uniform", "3d-ce3", "1d-ce2",
         "2d-even-along-axis-0"],
)
def test_perturbation_kernel_matches_assembled_reference(monkeypatch, d, n, pot, layout, rows):
    # n = 18 at d = 2: N = 324 leaves a partial last block of rows.  An even
    # V is read at one row per reflection orbit, (n/2 + 1)^d rows; on the
    # fixed planes of the d = 3 grid the rows carry shares 1/2, 1/4 and 1/8.
    # A V even along axis 0 only is read at every row.
    g = GridSpec(d, n, 4.0)
    u = np.random.default_rng(18).uniform(0.0, 3.0, g.shape)
    if pot == "uniform":
        V = Field(g, u)
    elif pot == "even_along_axis_0":
        V = Field(g, 0.5 * (u + np.take(u, -np.arange(n) % n, axis=0)))
    else:
        V = potentials.discretize_potential(pot, g)
    op = semigroup.dense_schrodinger(V)
    assert (len(op.bases), len(op.blocks)) == layout
    A = semigroup.multiplier_matrix(g, spectral.sqrt_laplacian()) @ dense_matrix(g, V, -0.5)
    ref = (A - np.eye(g.num_points)) / (fracpow.C2 * g.cell_volume)
    read = []
    power = fracpow.dense_power

    def counting(stack, V, p):
        read.append(len(stack))
        return power(stack, V, p)

    monkeypatch.setattr(fracpow, "dense_power", counting)
    W = fracpow.perturbation_kernel(V)
    assert sum(read) == rows
    want = (ref.min(), np.abs(ref).max(), ref.sum(axis=0).max() * g.cell_volume)
    got = (W.min_entry, W.max_abs_entry, W.max_column_mass)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
def test_dense_power_zero_potential_is_the_catalog_multiplier(d, n):
    # V = 0: the pseudo-inverse on mean-zero fields, 0 on the constants
    g = GridSpec(d, n, 4.0)
    V = potentials.discretize_potential(potentials.zero(), g)
    x = np.random.default_rng(d).standard_normal((3, *g.shape))
    x -= x.mean(axis=tuple(range(1, d + 1)), keepdims=True)
    for power, m in ((-0.5, spectral.inv_sqrt_laplacian()), (-1.0, spectral.inv_laplacian()),
                     (0.5, spectral.sqrt_laplacian())):
        got = fracpow.dense_power(x, V, power)
        want = spectral.apply_symbol_stack(x, m.symbol(g), d)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(fracpow.dense_power(np.ones((1, *g.shape)), V, -0.5))) <= 1e-12


def test_dense_power_rejects_unknown_power():
    g = GridSpec(1, 16, 4.0)
    V = potentials.discretize_potential(potentials.harmonic(), g)
    with pytest.raises(ValueError, match="power must be one of"):
        fracpow.dense_power(np.ones((1, *g.shape)), V, 1.5)


def test_spectral_bounds_with_and_without_dense(monkeypatch):
    g = GridSpec(1, 32, 4.0)
    V = potentials.discretize_potential(potentials.harmonic(), g)
    lo, hi = fracpow.spectral_bounds(V)
    op = semigroup.dense_schrodinger(V)
    assert lo == pytest.approx(op.eigenvalues.min())
    assert hi == pytest.approx(op.eigenvalues.max())
    # past the cap there is no range to build a rule on: both routes raise
    monkeypatch.setenv("RZLAB_DENSE_CAP", str(g.num_points - 1))
    with pytest.raises(semigroup.DenseCapError):
        fracpow.spectral_bounds(V)
    with pytest.raises(semigroup.DenseCapError):
        fracpow.frac_power_apply(mean_zero_field(g), V, -0.5)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_spectral_bounds_zero_potential_floor(d):
    # The computed zero eigenvalue has rounding sign; either sign is a zero mode.
    g = GridSpec(d, 16, 4.0)
    V = potentials.discretize_potential(potentials.zero(), g)
    lo, hi = fracpow.spectral_bounds(V)
    lam = semigroup.dense_schrodinger(V).eigenvalues
    assert lo == lam[~semigroup.zero_modes(lam)].min()
    assert lo == pytest.approx((math.pi / g.R) ** 2, rel=0, abs=1e-12)
    assert hi == pytest.approx(d * (math.pi * g.n / (2.0 * g.R)) ** 2, rel=1e-12)
