"""Fractional powers of L by subordination quadrature, plus dense oracles.

The powers -1/2, -1, +1/2 are weighted time-integrals of the semigroup:

    L^(-1/2) f = c1 * int_0^inf  e^{-tL} f  dt / sqrt(t)
    L^(-1)   f =      int_0^inf  e^{-tL} f  dt
    L^(+1/2) f = c2 * int_0^inf (e^{-tL} f - f)  dt / t^(3/2)

with c1 = pi^(-1/2) and c2 = -(2 sqrt(pi))^(-1).  The trapezoid rule in
s = ln t, about four nodes per decade of t, gives node coefficients c_i
whose scalar identity

    sum_i c_i e^{-t_i lam} ~ lam^power    (e^{-t_i lam} - 1 for +1/2)

is verified at build time across the operator's spectral range, on the
same coefficients the walk sums.

The semigroup applications are Strang runs (:func:`semigroup.evolve_stack`,
one matrix power of the step at d = 1, a loop of steps at d >= 2).
Every node t <= tau0 / 16 is reached from t = 0 directly, and these nodes
are evolved together, a block of times per call.  The nodes above advance
one from the next under a step controller, each increment stepping at
most a tenth of its node time.  The node sums are array products, one
contraction per block of direct nodes and power, one broadcast update per
later node; the +1/2 terms keep e^{-t_i L} f - f per node, so the large
coefficients of the small nodes multiply a difference, not two states.

The dense companion is :func:`dense_power`, L^power on a field stack
through :func:`semigroup.apply_function`.  Both routes take (stack, V,
power), and for V = 0 (:func:`semigroup.vanishes`) both give the
pseudo-inverse, 0 on the constants.  The summary of the perturbation kernel
W of sqrt(-Delta) L^(-1/2) = I + c2 * W is formed from it a block of rows
at a time, one row per reflection orbit when V is even along every axis.
The Green-mass functional is one linear solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import semigroup, spectral
from .grid import Field, l2_norms

C1 = 1.0 / math.sqrt(math.pi)
C2 = -1.0 / (2.0 * math.sqrt(math.pi))

POWERS = (-0.5, -1.0, 0.5)


class QuadratureBuildError(RuntimeError):
    """Requested tolerance unreachable within the node budget."""


@dataclass(frozen=True, eq=False)
class TimeQuadrature:
    """Trapezoid rule in s = ln t for subordination powers: t_k = e^{kh}, w_k = h t_k."""

    powers: tuple[float, ...]
    step: float  # h, the spacing of the nodes in ln t
    nodes: np.ndarray    # t_i, strictly increasing
    weights: np.ndarray  # w_i > 0, include the dt = t ds substitution
    spectral_range: tuple[float, float]

    def scalar_apply(self, power: float, lam) -> np.ndarray:
        """sum_i c_i e^{-t_i lam} on the walk's own c_i (expm1, not cancelling, at +1/2)."""
        if power not in self.powers:
            raise ValueError(f"rule built for powers {self.powers}, not {power}")
        decay = np.expm1 if power == 0.5 else np.exp
        x = np.multiply.outer(-np.atleast_1d(lam), self.nodes)  # -lam t_i, decayed in place
        return decay(x, out=x) @ _node_coefficients(power, self)

    def max_identity_error(self) -> float:
        """Max relative error of each power's identity at QUAD_CHECK_LAMBDAS log-spaced lambdas."""
        lams = np.geomspace(self.spectral_range[0], self.spectral_range[1], QUAD_CHECK_LAMBDAS)
        return max(
            float(np.max(np.abs(self.scalar_apply(p, lams) - lams**p) / np.abs(lams**p)))
            for p in self.powers
        )


def _node_coefficients(power: float, quad: TimeQuadrature) -> np.ndarray:
    """c_i of the walk's node sums, the coefficients the identity is checked on."""
    t, w = quad.nodes, quad.weights
    if power == -0.5:
        return w * C1 / np.sqrt(t)
    if power == -1.0:
        return w
    return w * C2 * t**-1.5


def _range_for(power: float, lam_min: float, lam_max: float, tol: float) -> tuple[float, float]:
    z = math.sqrt(math.log(1.0 / tol) + 6.0)
    if power == -0.5:
        u_lo = tol / (2.0 * C1 * math.sqrt(lam_max))
        u_hi = z / math.sqrt(lam_min)
    elif power == -1.0:
        u_lo = math.sqrt(tol / lam_max)
        u_hi = z / math.sqrt(lam_min)
    else:
        u_lo = tol / (2.0 * abs(C2) * math.sqrt(lam_max))
        u_hi = 2.0 * abs(C2) / (tol * math.sqrt(lam_min))
    return 2.0 * math.log(0.5 * u_lo), 2.0 * math.log(1.2 * u_hi)  # in s = ln t = 2 ln u


# Nodes per decade of t a build starts from (each retry multiplies them by
# 1.6), the most nodes a rule takes, and the lambdas its identity is checked
# at, fine enough to see the trapezoid's ripple in ln lambda.
QUAD_NODES_PER_DECADE = 4.0
QUAD_MAX_NODES = 4000
QUAD_CHECK_LAMBDAS = 200


def build_quadrature(
    powers: tuple[float, ...],
    spectral_range: tuple[float, float],
    tol: float = 1e-6,
) -> TimeQuadrature:
    """Build and verify one rule for ``powers`` over [lam_min, lam_max].

    The rule is the trapezoid rule in s = ln t, t_k = e^{kh} and
    w_k = h t_k, over the union of the powers' truncated ranges.  After
    t = e^s each integrand is a Laplace-type function analytic in a strip
    about the real s-axis, so the error falls like exp(-pi^2 / h) (the sinc
    rule of Bonito & Pasciak, Math. Comp. 84, 2015).  Each power's identity
    is checked at QUAD_CHECK_LAMBDAS log-spaced lambdas; until all pass, h
    shrinks and the range widens, and a rule that would take more than
    QUAD_MAX_NODES nodes raises before any node is made.
    """
    lam_min, lam_max = spectral_range
    if not (0 < lam_min <= lam_max):
        raise ValueError(f"need 0 < lam_min <= lam_max, got {spectral_range}")
    if not isinstance(powers, tuple) or not powers or any(p not in POWERS for p in powers):
        raise ValueError(f"powers must be a tuple drawn from {POWERS}, got {powers}")

    ranges = [_range_for(p, lam_min, lam_max, tol) for p in powers]
    s_lo, s_hi = min(lo for lo, _ in ranges), max(hi for _, hi in ranges)
    for h in [math.log(10.0) / QUAD_NODES_PER_DECADE / 1.6**j for j in range(6)]:
        k_lo, k_hi = math.floor(s_lo / h), math.ceil(s_hi / h)
        if k_hi - k_lo + 1 > QUAD_MAX_NODES:
            raise QuadratureBuildError(
                f"tolerance {tol} needs more than {QUAD_MAX_NODES} nodes"
            )
        t = np.exp(h * np.arange(k_lo, k_hi + 1))
        quad = TimeQuadrature(powers, h, t, h * t, (lam_min, lam_max))
        if quad.max_identity_error() <= tol:
            return quad
        s_lo += 2.0 * math.log(0.5)
        s_hi += 2.0 * math.log(1.3)
    raise QuadratureBuildError(
        f"scalar identity for powers {powers} did not reach tol {tol}"
    )


def spectral_bounds(V: Field) -> tuple[float, float]:
    """Spectral range of L for quadrature sizing, from the dense operator.

    (smallest eigenvalue off :func:`semigroup.zero_modes`, largest
    eigenvalue); past the dense cap :class:`semigroup.DenseCapError`.  A V
    that is not 0 but has an eigenvalue under the zero-mode floor raises
    :class:`QuadratureBuildError`: a rule from lambda_2 would drop lambda_1.
    """
    lam = semigroup.dense_schrodinger(V).eigenvalues
    zero = semigroup.zero_modes(lam)
    if zero.any() and not semigroup.vanishes(V):
        raise QuadratureBuildError(f"V is not 0 but its lowest eigenvalue {lam.min():.3g} is under "
                                   f"the zero-mode floor {semigroup.zero_mode_floor(lam):.3g}")
    return float(lam[~zero].min()), float(lam.max())


DEFAULT_SUBORDINATION_STEP = 0.04
# Nodes t <= tau0 * DIRECT_NODE_FRACTION are reached from t = 0 directly,
# in one coarse and two fine steps.  A direct step to t has a splitting
# error per unit time proportional to t^2, at most 1/256 of a regular tau0
# step's; a threshold of tau0 itself made the harmonic d = 1 entry of
# QUAD_VS_DENSE 13 times less accurate.
DIRECT_NODE_FRACTION = 1.0 / 16.0
# Elements per batched evolve_stack call over direct nodes, counting each
# node's evolved stack and its n x n heat circulant; it keeps peak memory
# flat.
DIRECT_BLOCK_ELEMENTS = 2**16
# An increment to node t_i steps at most STEP_NODE_FRACTION * t_i, as nodes
# e^h apart leave the first increments one or two steps otherwise: QUAD_VS_DENSE's
# d = 1 harmonic power -1/2 entry reads 2.5e-7 with the cap, 5.5e-6 without.
STEP_NODE_FRACTION = 0.1


def subordinated_apply_stack(
    stack: np.ndarray,
    V: Field,
    power: float | tuple[float, ...],
    tol: float = 1e-6,
    tau0: float = DEFAULT_SUBORDINATION_STEP,
) -> tuple[np.ndarray, np.ndarray]:
    """L^power of each field of a stack on V's grid, by subordination.

    For V = 0 each field's mean is removed first: the walk then gives
    :func:`dense_power`'s pseudo-inverse for every power.

    The rule is :func:`build_quadrature` of the powers over
    :func:`spectral_bounds` of V, verified to ``tol``.  Each node is
    reached by a coarse Strang run and a lockstep fine run at exactly twice
    the steps; the two quadrature sums are Richardson-combined, which
    cancels the second-order splitting error.  Nodes beyond the spectral
    decay horizon contribute only their identity part.

    ``power`` may be a tuple of powers: one rule and one walk then serve
    every power, and the result and the estimate gain a leading power axis.

    The nodes t_i <= tau0 * DIRECT_NODE_FRACTION, a prefix of the sorted
    rule, are reached from t = 0 in one coarse step and two fine steps.
    They are evolved as time arrays, in blocks of m nodes with
    m * (stack.size + n^2) <= DIRECT_BLOCK_ELEMENTS, which bounds the
    evolved states and heat circulants held at once.  From the last of
    them the state advances incrementally through the remaining nodes.

    The step size is controlled per increment: with r the smallest, over
    the fields and powers, of |sum so far| / (|state| * sum of the |c_j|
    still to come), the increment steps at tau0 * max(1, r)^(1/4).  Once
    the summed part dominates what the remaining nodes can add, their
    splitting error matters proportionally less.  An increment from t = 0,
    and any stack with a zero state, steps at tau0.  Every increment to t_i
    steps at most STEP_NODE_FRACTION * t_i; the step sequence is
    deterministic in the data.

    Returns (result, estimate): estimate = (fine - coarse) / 3 is the
    embedded estimate of the splitting error of the fine sum before
    extrapolation.
    """
    walk = isinstance(power, tuple)
    powers, spec = power if walk else (power,), V.spec
    quad = build_quadrature(powers, spectral_bounds(V), tol)
    if semigroup.vanishes(V):
        stack = stack - stack.mean(axis=tuple(range(-spec.d, 0)), keepdims=True)
    nodes, t_cut = quad.nodes, 37.0 / quad.spectral_range[0]
    coefs = np.array([_node_coefficients(p, quad) for p in powers])
    on = nodes <= t_cut
    remaining = np.cumsum(np.where(on, np.abs(coefs), 0.0)[:, ::-1], axis=1)[:, ::-1]
    # the +1/2 integrand is e^{-tL} f - f: its node terms are c_i (state - f)
    base = np.multiply.outer([p == 0.5 for p in powers], stack)
    power_axis = (-1,) + (1,) * stack.ndim  # a node's coefficients, one per power
    acc_c = np.zeros((len(powers), *stack.shape))
    acc_f = np.zeros_like(acc_c)

    direct = int(np.searchsorted(nodes, min(tau0 * DIRECT_NODE_FRACTION, t_cut), "right"))
    block = max(1, DIRECT_BLOCK_ELEMENTS // (stack.size + spec.n**2))
    state_c = state_f = stack
    for start in range(0, direct, block):
        sl = slice(start, min(start + block, direct))
        state_c = semigroup.evolve_stack(stack, V, nodes[sl], 1)
        state_f = semigroup.evolve_stack(stack, V, nodes[sl], 2)
        for acc, states in ((acc_c, state_c), (acc_f, state_f)):
            for k, p in enumerate(powers):
                acc[k] += np.tensordot(coefs[k, sl], states - stack if p == 0.5 else states, 1)
    t_prev = 0.0
    if direct:
        state_c, state_f, t_prev = state_c[-1], state_f[-1], nodes[direct - 1]
    for i in range(direct, int(on.sum())):
        tau = tau0
        if t_prev > 0:
            state_norms = l2_norms(state_f, spec)
            if state_norms.min() > 0:
                acc_norms = l2_norms(acc_f, spec).reshape(len(powers), -1)
                r = (acc_norms / (state_norms * remaining[:, i, None])).min()
                tau = tau0 * max(1.0, r) ** 0.25
        tau = min(tau, STEP_NODE_FRACTION * nodes[i])
        dt = nodes[i] - t_prev
        steps = max(1, math.ceil(dt / tau))
        state_c = semigroup.evolve_stack(state_c, V, dt, steps)
        state_f = semigroup.evolve_stack(state_f, V, dt, 2 * steps)
        t_prev = nodes[i]
        acc_c += coefs[:, i].reshape(power_axis) * (state_c - base)
        acc_f += coefs[:, i].reshape(power_axis) * (state_f - base)
    # past t_cut e^{-tL} f is taken as 0: only the +1/2 identity part is left
    off = coefs[:, ~on].sum(axis=1).reshape(power_axis) * base
    acc_c -= off
    acc_f -= off
    result, estimate = (4.0 * acc_f - acc_c) / 3.0, (acc_f - acc_c) / 3.0
    return (result, estimate) if walk else (result[0], estimate[0])


def frac_power_apply(f: Field, V: Field, power: float) -> Field:
    """Apply L^power by subordination of the splitting semigroup."""
    semigroup._check_potential(V, f.spec)
    out, _ = subordinated_apply_stack(f.values[None], V, power)
    return Field(f.spec, out[0])


def green_mass_all(V: Field) -> np.ndarray:
    """Green mass at every point of V's grid at once, as one linear solve.

    The Green kernel is symmetric, so the masses are L^(-1) V: the h^d of
    the quadrature cancels the 1/h^d of the kernel scaling.  V = 0 gives 0.
    """
    semigroup._check_potential(V)
    if semigroup.vanishes(V):
        return np.zeros(V.spec.num_points)
    return np.linalg.solve(semigroup.schrodinger_matrix(V.spec, V.values), V.values.ravel())


@dataclass(frozen=True)
class PerturbationKernel:
    """Extremes of W with sqrt(-Delta) L^(-1/2) = I + c2 * W (kernel scaling)."""

    min_entry: float
    max_abs_entry: float
    max_column_mass: float


def dense_power(stack: np.ndarray, V: Field, power: float) -> np.ndarray:
    """L^power applied to a (batch, *grid shape) stack on V's grid, in the eigenbasis.

    This is the one dense power: for V = 0 (:func:`semigroup.vanishes`),
    phi is 0 on the zero modes, the pseudo-inverse that the subordinated
    walk gives too.
    """
    if power not in POWERS:
        raise ValueError(f"power must be one of {POWERS}, got {power}")
    op = semigroup.dense_schrodinger(V)
    singular = semigroup.vanishes(V)

    def phi(lam: np.ndarray) -> np.ndarray:
        vals = np.zeros_like(lam)
        keep = ~semigroup.zero_modes(lam) if singular else slice(None)
        vals[keep] = lam[keep] ** power
        return vals

    return semigroup.apply_function(op, phi, stack)


def perturbation_kernel(V: Field) -> PerturbationKernel:
    """Extremes of W from the operator identity A = I + c2 W.

    A = sqrt(-Delta) L^(-1/2) carries the integral-kernel 1/h^d scaling.
    Both factors are symmetric, so row j of A is L^(-1/2) applied to
    column j of the sqrt(-Delta) circulant.  W is read at the rows of
    :func:`semigroup.orbit_columns`, COLUMN_BLOCK at a time, and is never
    held whole.  Both factors commute with the axis reflections that fix
    an even V, so W(Ri, Rj) = W(i, j): the min entry and max |entry| of
    the rows read are those of W, and the column masses are the
    share-weighted sum of those rows, summed over the axis flips of the
    grid.  Any other V has every row read, with share 1 and no flip.
    """
    grid = V.spec
    col = semigroup._circulant_column(grid, spectral.sqrt_laplacian())
    reps, share, flip_axes = semigroup.orbit_columns(V)
    N, axis = grid.num_points, np.arange(grid.n)
    lo, hi, mass = math.inf, 0.0, np.zeros(N)
    for start in range(0, len(reps), semigroup.COLUMN_BLOCK):
        sl = slice(start, start + semigroup.COLUMN_BLOCK)
        rows = reps[sl]
        block = dense_power(col[semigroup._offset_index(grid, rows, axis)], V, -0.5)
        block = block.reshape(len(rows), N)
        block[np.arange(len(rows)), rows] -= 1.0
        block /= C2 * grid.cell_volume
        lo = min(lo, float(block.min()))
        hi = max(hi, float(np.abs(block).max()))
        mass += share[sl] @ block
    mass = mass.reshape(grid.shape)
    for a in flip_axes:
        mass = mass + np.take(mass, -axis % grid.n, axis=a)
    return PerturbationKernel(lo, hi, float(mass.max() * grid.cell_volume))
