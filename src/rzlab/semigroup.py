"""Schrodinger semigroup e^{-tL}, L = -Delta + V, and its oracles.

Three independent realizations:

* Strang splitting of the heat flow against the potential (potential
  half-steps outermost), second order in the step size and exact for
  constant V; the heat flow is applied as one n x n circulant per axis;
* a dense-matrix route: L built from the spectral Laplacian (so that
  dense and transform paths share one discrete operator exactly) plus
  diag(V), with an eigendecomposition held in one layout, per-axis bases
  plus eigen-blocks (:class:`DenseOperator`): a potential whose samples are
  additively separable is factored per axis, one even in each coordinate
  as 2^d parity sectors, any other whole.  :func:`apply_function` is the
  one map of phi(Lambda) back to the grid: kernels are read as phi(L)
  applied to blocks of unit fields (:func:`matrix_function`), and
  circulant rows are gathered by per-axis offsets (:func:`_offset_index`).
  A whole kernel is scanned at one column per orbit of the axis
  reflections when V is even along every axis (:func:`orbit_columns`);
* a Feynman-Kac Monte Carlo estimate of the kernel k_t(x, y) over
  Brownian bridges, free-space and non-periodized.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from . import potentials, spectral
from .grid import Field, GridSpec

DEFAULT_DENSE_CAP = 4096
DEFAULT_STEP_SIZE = 0.01
DEFAULT_BRIDGE_SLICES = 64
FK_CHUNK = 8192  # paths per Feynman-Kac chunk; it fixes which seed draws each path
# Normals drawn at once within a chunk: bounds the memory held, moves no estimate.
FK_BLOCK_ELEMENTS = 2**15
# Unit fields per apply_function call when a whole kernel is scanned
# (W_KERNEL, CE2): its columns (orbit_columns) are read COLUMN_BLOCK at a time.
COLUMN_BLOCK = 256


class DenseCapError(ValueError):
    """Grid too large for dense-matrix operations."""


def dense_cap() -> int:
    raw = os.environ.get("RZLAB_DENSE_CAP")
    return int(raw) if raw else DEFAULT_DENSE_CAP


def default_steps(t: float, tau0: float = DEFAULT_STEP_SIZE) -> int:
    return max(1, math.ceil(t / tau0))


def _check_potential(V: Field, grid: GridSpec | None = None) -> None:
    """V is nonnegative, and on ``grid`` when a one-field entry point names one."""
    if grid is not None and V.spec != grid:
        raise ValueError("potential grid does not match field grid")
    if np.any(V.values < 0):
        raise ValueError("potential must be nonnegative")


@lru_cache(maxsize=16)
def _heat_tables(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Read-only xi_k^2 for k = 0..n/2 and the folded min(|i - j|, n - |i - j|)."""
    n = spec.n
    xi2 = spec.freq_axis()[: n // 2 + 1] ** 2
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    fold = np.minimum(dist, n - dist)
    xi2.setflags(write=False)
    fold.setflags(write=False)
    return xi2, fold


def evolve_stack(stack: np.ndarray, V: Field, t: float | np.ndarray, steps: int) -> np.ndarray:
    """Strang splitting on a (..., grid shape) stack of real fields on V's grid.

    ``t`` is one time, or a 1-D array of m times: then the result has shape
    (m, *stack.shape), the stack evolved to each time in ``steps`` equal
    steps, each slice equal to the call with that time alone.

    Adjacent potential half-steps are merged: one e^{-tau V/2} opens the
    run, each step is a heat step followed by e^{-tau V}, and the last
    step closes with e^{-tau V/2} instead.  The heat flow e^{tau Delta} is
    the Kronecker product of one n x n circulant H per axis, the inverse
    real FFT of the even 1-D symbol exp(-tau xi_k^2) gathered by |i - j|
    folded to at most n/2, so H is symmetric and a heat step is d matrix
    products against it, batched over the times.
    """
    ts, spec = np.atleast_1d(np.asarray(t, dtype=float)), V.spec
    m, n, d = len(ts), spec.n, spec.d
    tau = ts / steps
    xi2, fold = _heat_tables(spec)
    heat = np.fft.irfft(np.exp(np.multiply.outer(-tau, xi2)), n, axis=-1).take(fold, axis=1)
    lead = (1,) * (stack.ndim - d)
    half = np.exp(np.multiply.outer(-0.5 * tau, V.values)).reshape(m, *lead, *spec.shape)
    full = np.exp(np.multiply.outer(-tau, V.values)).reshape(half.shape) if steps > 1 else None
    u = half * stack
    for i in range(steps):
        for a in range(1, d):  # grid axis a - 1, with n^(d - a) samples after it
            u = heat[:, None] @ u.reshape(m, -1, n, n ** (d - a))
        u = (u.reshape(m, -1, n) @ heat).reshape(m, *stack.shape)
        u *= full if i < steps - 1 else half
    u[ts == 0.0] = stack
    return u if np.ndim(t) else u[0]


def strang_evolve(f: Field, V: Field, t: float, steps: int) -> Field:
    """Approximate e^{-tL} f by symmetric operator splitting."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    _check_potential(V, f.spec)
    return Field(f.spec, evolve_stack(f.values, V, t, steps))


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Eigendecomposition of L on a grid: per-axis bases plus eigen-blocks.

    ``bases`` holds one orthogonal n x n matrix per axis (empty for grid
    coordinates); their Kronecker product B maps basis coordinates, in
    row-major order, to grid samples.  ``blocks`` splits B^T L B into
    diagonal blocks (lam, U, idx): the block on the flat basis coordinates
    ``idx`` (an index array or ``slice(None)``) is U diag(lam) U^T, with U
    None when the block is already diagonal.  The N x N eigenvector matrix
    is never formed.
    """

    grid: GridSpec
    bases: tuple[np.ndarray, ...]
    blocks: tuple[tuple[np.ndarray, np.ndarray | None, np.ndarray | slice], ...]

    @property
    def eigenvalues(self) -> np.ndarray:
        """All N eigenvalues, block by block (not sorted)."""
        return np.concatenate([lam for lam, _, _ in self.blocks])


def _eigh_symmetric(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scale = float(np.max(np.abs(matrix))) or 1.0
    asym = float(np.max(np.abs(matrix - matrix.T)))
    if asym > 1e-10 * scale:
        raise ValueError(f"matrix is not symmetric: |M - M^T| = {asym:.3e}")
    return np.linalg.eigh(0.5 * (matrix + matrix.T))


def _check_dense_cap(grid: GridSpec) -> None:
    if grid.num_points > dense_cap():
        raise DenseCapError(
            f"{grid.num_points} points exceed dense cap {dense_cap()}"
        )


def multiplier_matrix(grid: GridSpec, m: spectral.MultiplierSpec) -> np.ndarray:
    """Dense matrix of a catalog multiplier (circulant from its delta response)."""
    _check_dense_cap(grid)
    N, axis = grid.num_points, np.arange(grid.n)
    return _circulant_column(grid, m)[_offset_index(grid, np.arange(N), axis)].reshape(N, N)


def _circulant_column(grid: GridSpec, m: spectral.MultiplierSpec) -> np.ndarray:
    """Delta response c of a multiplier on the grid, symmetrized: c[k] = c[-k mod n].

    ``c[_offset_index(grid, rows, np.arange(n))]`` gathers those rows
    (equally, columns) of the symmetric circulant matrix of m.
    """
    delta = np.zeros(grid.shape)
    delta[(0,) * grid.d] = 1.0
    col = spectral.apply_symbol_stack(delta, m.symbol(grid), grid.d)
    axes = tuple(range(grid.d))
    return 0.5 * (col + np.roll(np.flip(col, axes), 1, axes))


def _offset_index(grid: GridSpec, rows: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-axis (k_a(i) - q_a) mod n for flat rows i and per-axis offsets q_a.

    Returns d open-mesh index arrays, one per axis: an array of grid shape
    indexed by them is (len(rows), len(offsets), ..., len(offsets)), with
    entry [r, q] taken at the grid offset k(rows[r]) - q.
    """
    k, d = np.unravel_index(rows, grid.shape), grid.d
    return tuple(
        ((k[a][:, None] - offsets) % grid.n).reshape(
            len(rows), *(len(offsets) if b == a else 1 for b in range(d))
        )
        for a in range(d)
    )


def schrodinger_matrix(grid: GridSpec, V: np.ndarray) -> np.ndarray:
    """Assembled N x N matrix of L = -Delta + diag(V) on a grid."""
    return -multiplier_matrix(grid, spectral.laplacian()) + np.diag(np.ravel(V))


SEPARABLE_RTOL = 1e-12


def _separable_parts(V: Field) -> list[np.ndarray] | None:
    """Per-axis samples v_j with V = sum_j v_j(x_j), or None if V is not so.

    The terms are the least-squares additive fit (axis means about the
    grand mean, which goes to axis 0).  It is accepted when its residual is
    at round-off level relative to max |V|; catalog potentials that are
    not additive miss it by more than 0.3 relative.
    """
    vals = V.values
    mean = vals.mean()
    parts = [
        vals.mean(axis=tuple(b for b in range(vals.ndim) if b != a)) - mean
        for a in range(vals.ndim)
    ]
    parts[0] = parts[0] + mean
    resid = float(np.max(np.abs(vals - reduce(np.add.outer, parts))))
    if resid > SEPARABLE_RTOL * float(np.max(np.abs(vals))):
        return None
    return parts


def _reflection_symmetric(V: Field) -> bool:
    """Whether V equals its reflection k -> -k mod n along every axis, exactly.

    Mirror sample points are exact negatives (:meth:`GridSpec.axis`), so a
    potential even in each coordinate is sampled to equal values.
    """
    vals, flip = V.values, -np.arange(V.spec.n) % V.spec.n
    return all(np.array_equal(vals, np.take(vals, flip, axis=a)) for a in range(vals.ndim))


def orbit_columns(V: Field) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Kernel columns a scan reads, each one's share of its orbit, and the axes it folds.

    When V is even along every axis (:func:`_reflection_symmetric`), L
    commutes with each axis reflection R, as does every circulant on the
    grid, so a kernel K built from them has K(Ri, Rj) = K(i, j).  The
    columns with every k_a <= n/2 are then one per orbit of the 2^d
    reflections, and a column's share of its orbit is 1/|stabilizer|: a
    column with k_a in {0, n/2} is its own mirror along a, which halves
    its share.  A scan folds what it reads over the returned axes, that is
    over the 2^d axis flips of the grid.  Any other V gives every column,
    each with share 1, and no axis to fold.
    """
    grid = V.spec
    if not _reflection_symmetric(V):
        return np.arange(grid.num_points), np.ones(grid.num_points), ()
    h = grid.n // 2
    k = np.indices((h + 1,) * grid.d).reshape(grid.d, -1)
    share = 0.5 ** np.count_nonzero((k == 0) | (k == h), axis=0)
    return np.ravel_multi_index(tuple(k), grid.shape), share, tuple(range(grid.d))


def _parity_basis(n: int) -> np.ndarray:
    """Orthonormal n x n basis of even then odd vectors under k -> -k mod n.

    Even columns c = 0..n/2 are e_0, (e_c + e_{n-c})/sqrt(2) and e_{n/2};
    odd columns n/2 + c, c = 1..n/2-1, are (e_c - e_{n-c})/sqrt(2).  Column
    c represents the orbit of sample c, or of c - n/2 when c > n/2.
    """
    h = n // 2
    k = np.arange(1, h)
    basis = np.zeros((n, n))
    basis[[0, h], [0, h]] = 1.0
    basis[k, k] = basis[n - k, k] = basis[k, h + k] = math.sqrt(0.5)
    basis[n - k, h + k] = -math.sqrt(0.5)
    return basis


def _parity_sectors(grid: GridSpec, V: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(Flat parity coordinates, matrix of L) on each sector in {even, odd}^d.

    The 1-D Laplacian commutes with the reflection, so in the parity basis
    it has an even and an odd block; a V invariant under every axis
    reflection is constant on each orbit and stays diagonal.  Each sector
    is the Kronecker sum of its axes' blocks plus diag(V) at the orbit
    representatives (samples k <= n/2).
    """
    n, h = grid.n, grid.n // 2
    basis = _parity_basis(n)
    lap = basis.T @ schrodinger_matrix(GridSpec(1, n, grid.R), np.zeros(n)) @ basis
    rep = np.r_[0 : h + 1, 1:h]
    sectors = []
    for axes in itertools.product((np.arange(h + 1), np.arange(h + 1, n)), repeat=grid.d):
        kron_sum = reduce(lambda a, b: np.kron(a, np.eye(len(b))) + np.kron(np.eye(len(a)), b),
                          [lap[np.ix_(c, c)] for c in axes])
        sectors.append((np.ravel_multi_index(np.ix_(*axes), grid.shape).ravel(),
                        kron_sum + np.diag(V[np.ix_(*(rep[c] for c in axes))].ravel())))
    return sectors


class _Slot(threading.Event):
    """A build's value or exception, set once and awaited by other threads."""

    value = error = None

    def result(self):
        self.wait()
        if self.error is not None:
            raise self.error
        return self.value


class SingleFlightCache:
    """Bounded least-recently-used cache that builds each missing key once.

    A thread that misses installs a slot under the key and builds the
    value; threads asking for the same key meanwhile wait on that slot
    instead of building it again.  Only finished entries are evicted, so
    the cache exceeds ``limit`` while more builds than that are in flight.
    A failed build is dropped from the cache and re-raised in every
    waiting thread.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._lock = threading.Lock()
        self._entries: dict = {}

    def get(self, key, build: Callable[[], object]):
        with self._lock:
            slot = self._entries.pop(key, None)
            owner = slot is None
            if owner:
                done = [k for k, s in self._entries.items() if s.is_set()]
                for k in done[: max(0, len(self._entries) + 1 - self.limit)]:
                    del self._entries[k]
                slot = _Slot()
            self._entries[key] = slot
        if owner:
            try:
                slot.value = build()
            except BaseException as exc:
                with self._lock:
                    if self._entries.get(key) is slot:
                        del self._entries[key]
                slot.error = exc
                raise
            finally:
                slot.set()
        return slot.result()

    def __len__(self) -> int:
        return len(self._entries)


# Four entries keep THEOREM's and VHALF's keys resident: they ask for
# d = 1, 2, 3 in turn with WEAK11's finer d = 2 grid in between.  They do not
# hold the core suite's catalog: L2_CONTRACT, L1_BOUND and INTERP each cycle
# the six d = 2 catalog keys, so the three non-separable order-256 operators
# are factored three times each, as four parity sectors of order <= 81 that
# take milliseconds.  W_KERNEL's sector factors take about 2 MB per operator.
_DENSE_CACHE = SingleFlightCache(limit=4)


def dense_schrodinger(V: Field) -> DenseOperator:
    """Exact discrete L = -Delta + diag(V) with its eigendecomposition.

    When the samples of V are additively separable (zero, const, harmonic),
    L is the Kronecker sum of d one-dimensional operators and is factored
    per axis by d eigendecompositions of order n: their eigenvectors are the
    bases, and the Kronecker-sum eigenvalues one diagonal block.  Otherwise,
    when d >= 2 and V is even in each coordinate (ce1, ce2, ce3), L is block
    diagonal in the parity basis on each axis and each of its 2^d sectors,
    of order at most (n/2 + 1)^d, is factored alone.  Any other V has its
    assembled N x N matrix factored whole, as one block on the grid
    coordinates.  Decompositions are cached on (grid,
    potential samples), and concurrent callers of one key share a single
    factorization: the d = 3 oracle at the cap takes seconds to factor.
    Past the cap it raises :class:`DenseCapError`.
    """
    _check_potential(V)
    _check_dense_cap(V.spec)
    return _DENSE_CACHE.get((V.spec, V.values.tobytes()), lambda: _factor(V))


def _factor(V: Field) -> DenseOperator:
    grid = V.spec
    parts = _separable_parts(V) if grid.d > 1 else None
    if parts is not None:
        line = GridSpec(1, grid.n, grid.R)
        axes = [_eigh_symmetric(schrodinger_matrix(line, v)) for v in parts]
        bases = tuple(q for _, q in axes)
        blocks = [(np.ravel(reduce(np.add.outer, [lam for lam, _ in axes])), None, slice(None))]
    elif grid.d > 1 and _reflection_symmetric(V):
        bases = (_parity_basis(grid.n),) * grid.d
        blocks = [(*_eigh_symmetric(m), idx) for idx, m in _parity_sectors(grid, V.values)]
    else:
        bases = ()
        blocks = [(*_eigh_symmetric(schrodinger_matrix(grid, V.values)), slice(None))]
    for a in (*bases, *(x for block in blocks for x in block)):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return DenseOperator(grid, bases, tuple(blocks))


def zero_modes(lam: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues treated as zero: |lam| <= 1e-9 max(1, max |lam|).

    The sign of a computed zero eigenvalue is rounding noise, so every
    consumer of the spectrum uses this one predicate.
    """
    return np.abs(lam) <= 1e-9 * max(1.0, float(np.max(np.abs(lam))))


def vanishes(V: Field) -> bool:
    """Whether V is identically 0, so that L = -Delta and its kernel is the constants.

    Every route to a power of L decides V = 0 by this one predicate and
    gives the pseudo-inverse there: 0 on the constants.
    """
    return not np.any(V.values)


def _contract(x: np.ndarray, bases: tuple[np.ndarray, ...], to_basis: bool) -> np.ndarray:
    """B^T x (to_basis) or B x over the trailing axes of x, one axis per basis."""
    k = len(bases)
    for a, q in enumerate(bases):
        ax = x.ndim - k + a
        x = np.swapaxes(np.swapaxes(x, ax, -1) @ (q if to_basis else q.T), ax, -1)
    return x


def apply_function(
    op: DenseOperator,
    phi: Callable[[np.ndarray], np.ndarray],
    stack: np.ndarray,
) -> np.ndarray:
    """phi(L) applied to a (batch, *grid shape) stack: B U phi(Lambda) U^T B^T x.

    Contracts with the per-axis bases one axis at a time, applies each
    eigen-block on its basis coordinates, and contracts back, so the N x N
    matrix of phi(L) is never formed.  phi is evaluated on every
    eigenvalue, zero modes included, and a non-finite value raises: what a
    power does on the kernel of L is decided by its caller,
    :func:`fracpow.dense_power`.
    """
    eig = op.eigenvalues
    vals = np.asarray(phi(eig), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"matrix function not finite at eigenvalues {eig[~np.isfinite(vals)][:3]}")
    ends = np.cumsum([len(lam) for lam, _, _ in op.blocks])
    shape = (len(stack), *op.grid.shape)
    x = _contract(stack.reshape(shape), op.bases, to_basis=True).reshape(len(stack), -1)
    y = np.empty_like(x)
    for (_, u, idx), v in zip(op.blocks, np.split(vals, ends[:-1])):
        y[:, idx] = x[:, idx] * v if u is None else (x[:, idx] @ u * v) @ u.T
    return _contract(y.reshape(shape), op.bases, to_basis=False).reshape(stack.shape)


def matrix_function(
    op: DenseOperator,
    phi: Callable[[np.ndarray], np.ndarray],
    cols: int | list[int] | np.ndarray | None = None,
) -> np.ndarray:
    """Columns ``cols`` (all N by default) of phi(L) as an N x len(cols) matrix.

    Column j is :func:`apply_function` of the unit field at flat index j;
    ``cols`` may be one index or a sequence in any order.  A check that
    scans a whole kernel reads the columns of :func:`orbit_columns` in
    blocks of :data:`COLUMN_BLOCK`.
    """
    N = op.grid.num_points
    idx = np.arange(N) if cols is None else np.atleast_1d(cols)
    unit = np.zeros((len(idx), N))
    unit[np.arange(len(idx)), idx] = 1.0
    out = apply_function(op, phi, unit.reshape(len(idx), *op.grid.shape))
    return out.reshape(len(idx), N).T


def heat_kernel_free(x: np.ndarray, y: np.ndarray, t: float) -> float:
    """Free-space Gaussian heat kernel h_t(x - y)."""
    d = len(x)
    dist2 = float(np.sum((np.asarray(x, float) - np.asarray(y, float)) ** 2))
    return (4.0 * math.pi * t) ** (-d / 2.0) * math.exp(-dist2 / (4.0 * t))


def fk_kernel_estimate(
    specs: Sequence[potentials.PotentialSpec],
    xs,
    ys,
    ts,
    paths: int,
    seed: int,
    *,
    slices: int = DEFAULT_BRIDGE_SLICES,
) -> np.ndarray:
    """Monte Carlo kernel estimates k_t(x, y) ~ h_t(x-y) E[exp(-t <V>_bridge)].

    ``xs``, ``ys`` and ``ts`` hold the endpoints and times of k triples.
    Returns a (len(specs), k, 2) table of (estimate, standard error).

    Paths are split into chunks of FK_CHUNK paths with per-chunk seeds
    derived from (seed, chunk index), so changing FK_CHUNK changes every
    estimate.  A chunk's normals are drawn once, FK_BLOCK_ELEMENTS at a
    time, and serve every triple and potential; each entry equals the
    table of its own potential and triple alone.
    """
    triples = list(zip(xs, ys, ts, strict=True))
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    if slices < 1:
        raise ValueError(f"slices must be >= 1, got {slices}")
    ends = []
    for x, y, t in triples:
        if not (0 < t < math.inf):
            raise ValueError(f"time must be finite and > 0, got {t}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if x.shape != y.shape or x.shape != (ends[0][0] if ends else x).shape:
            raise ValueError("endpoints must have the same dimension")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError(f"endpoints must be finite, got x={x.tolist()} y={y.tolist()}")
        # Midpoint bridge times, plus the terminal time for pinning.  The
        # semigroup is generated by the full Laplacian, so the bridge
        # variance is 2s(t-s)/t: increments carry variance 2 dt.
        times = (np.arange(slices) + 0.5) * (t / slices)
        sigma = np.sqrt(2.0 * np.diff(np.concatenate([[0.0], times, [t]])))
        ends.append((x, y, t, sigma[None, :, None], (times / t)[None, :, None]))
    out = np.zeros((len(specs), len(ends), 2))
    out[..., 0] = [heat_kernel_free(x, y, t) for x, y, t, _, _ in ends]
    live = [i for i, spec in enumerate(specs) if spec.tag != "zero"]
    d = len(ends[0][0]) if ends else 1
    rows = max(1, FK_BLOCK_ELEMENTS // ((slices + 1) * d))
    sums = np.zeros_like(out)
    for ci, start in enumerate(range(0, paths if live else 0, FK_CHUNK)):
        count = min(FK_CHUNK, paths - start)
        rng = np.random.default_rng([seed, ci])
        weights = np.empty((len(specs), len(ends), count))
        for r in range(0, count, rows):
            z = rng.standard_normal((min(rows, count - r), slices + 1, d))
            for j, (x, y, t, sigma, frac) in enumerate(ends):
                w = np.cumsum(z * sigma, axis=1)
                bridge = x + frac * (y - x) + w[:, :-1, :] - frac * w[:, -1:, :]
                for i in live:
                    pot = potentials.eval_capped(specs[i], bridge)
                    weights[i, j, r : r + len(z)] = np.exp(-(t / slices) * pot.sum(axis=1))
        for i, j in itertools.product(live, range(len(ends))):
            sums[i, j] += weights[i, j].sum(), (weights[i, j] ** 2).sum()
    for i, j in itertools.product(live, range(len(ends))):
        (prefactor, _), (sw, sw2) = out[i, j].tolist(), sums[i, j].tolist()
        mean = sw / paths
        var = max(0.0, (sw2 - paths * mean**2) / (paths - 1)) if paths > 1 else 0.0
        out[i, j] = prefactor * mean, prefactor * math.sqrt(var / paths)
    return out
