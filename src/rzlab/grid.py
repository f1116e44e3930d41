"""Periodic-box grids, sampled fields, discrete norms, and field file I/O.

The computational domain is the torus [-R, R)^d sampled at n points per
axis (spacing h = 2R/n).  Fields are real 64-bit sample arrays stored in
row-major order with axis 0 slowest; they are treated as immutable values.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

RZF1_MAGIC = b"RZF1"
_HEADER = struct.Struct("<IId")  # d, n as uint32 LE; R as float64 LE


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization of the torus [-R, R)^d."""

    d: int
    n: int
    R: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 4, got {self.n}")
        if not (self.R > 0 and np.isfinite(self.R)):
            raise ValueError(f"box half-width must be positive, got {self.R}")

    @property
    def h(self) -> float:
        return 2.0 * self.R / self.n

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def num_points(self) -> int:
        return self.n**self.d

    def axis(self) -> np.ndarray:
        """Sample coordinates along one axis: h*(k - n/2) for k = 0..n-1.

        Sample n/2 is 0, and samples k and n - k are exact negatives.
        """
        return self.h * (np.arange(self.n) - self.n // 2)

    def mesh(self) -> list[np.ndarray]:
        """d coordinate arrays of shape ``self.shape`` (axis 0 slowest)."""
        return list(np.meshgrid(*([self.axis()] * self.d), indexing="ij"))

    def points(self) -> np.ndarray:
        """All grid points as an (n^d, d) array in row-major point order."""
        return np.stack([m.ravel() for m in self.mesh()], axis=-1)

    def freq_axis(self) -> np.ndarray:
        """Angular frequencies (pi/R)*k, k integer in [-n/2, n/2), FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def freq_mesh(self) -> list[np.ndarray]:
        return list(np.meshgrid(*([self.freq_axis()] * self.d), indexing="ij"))

    def flat_index(self, multi_index: tuple[int, ...]) -> int:
        if len(multi_index) != self.d:
            raise ValueError(f"expected {self.d} indices, got {len(multi_index)}")
        return int(np.ravel_multi_index(multi_index, self.shape))

    def nearest_index(self, x) -> tuple[int, ...]:
        """Multi-index of the grid point nearest to x (periodic)."""
        x = np.asarray(x, dtype=float)
        k = (np.rint(x / self.h).astype(int) + self.n // 2) % self.n
        return tuple(int(v) for v in k)


@dataclass(frozen=True, eq=False)
class Field:
    """Real-valued samples on a grid.  Values have shape ``spec.shape``."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.spec.shape:
            if vals.size == self.spec.num_points:
                vals = vals.reshape(self.spec.shape)
            else:
                raise ValueError(
                    f"values have {vals.size} samples, grid needs {self.spec.num_points}"
                )
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals.reshape(self.spec.shape)))[0]
            pt = np.array([self.spec.axis()[i] for i in bad])
            raise ValueError(f"non-finite value at grid point {pt}")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


def sample(spec: GridSpec, fn: Callable[[np.ndarray], float]) -> Field:
    """Evaluate a pointwise function of a d-vector at every grid point."""
    pts = spec.points()
    vals = np.empty(len(pts), dtype=np.float64)
    for i, p in enumerate(pts):
        vals[i] = fn(p)
    if not np.all(np.isfinite(vals)):
        i = int(np.argmax(~np.isfinite(vals)))
        raise ValueError(f"sampled function is not finite at grid point {pts[i]}")
    return Field(spec, vals.reshape(spec.shape))


def _region_mask(spec: GridSpec, region) -> np.ndarray:
    if isinstance(region, np.ndarray):
        if region.shape != spec.shape:
            raise ValueError("region mask shape does not match grid")
        return region.astype(bool)
    pts = spec.points()
    mask = np.fromiter((bool(region(p)) for p in pts), dtype=bool, count=len(pts))
    return mask.reshape(spec.shape)


def lp_norm(f: Field, p: float, region=None) -> float:
    """Riemann-sum L^p norm, optionally restricted to a region.

    ``region`` may be a boolean mask of grid shape or a predicate of the
    point coordinates.  An empty region yields 0 with a warning.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    vals = f.values
    if region is not None:
        mask = _region_mask(f.spec, region)
        if not mask.any():
            warnings.warn("lp_norm over an empty region", stacklevel=2)
            return 0.0
        vals = vals[mask]
    return float(lp_norms(vals.reshape(1, -1), f.spec, p)[0])


def lp_norms(stack: np.ndarray, spec: GridSpec, p: float) -> np.ndarray:
    """Riemann-sum L^p norm of each field of a (batch, *grid shape) stack.

    The one p-norm formula: a field's |f|^p summed pairwise by numpy, times
    h^d, then the p-th root of that Python float.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    sums = (np.abs(stack) ** p).reshape(len(stack), -1).sum(axis=1) * spec.cell_volume
    return np.array([float(s) ** (1.0 / p) for s in sums])


def l2_norms(stack: np.ndarray, spec: GridSpec) -> np.ndarray:
    """l2 norm (no h^d) of each field of a stack: np.linalg.norm(axis=1), bit for bit."""
    x = stack.reshape(-1, spec.num_points)
    return np.sqrt(np.add.reduce(x * x, axis=1))


def lp_ratios(num: np.ndarray, den: np.ndarray, spec: GridSpec, p: float) -> np.ndarray:
    """Per-field ||num_i||_p / ||den_i||_p; a zero field in ``den`` raises."""
    return lp_norms(num, spec, p) / lp_denominators(den, spec, p)


def lp_denominators(den: np.ndarray, spec: GridSpec, p: float) -> np.ndarray:
    """lp_norms of the fields a ratio divides by, formed once for several numerators."""
    bottom = lp_norms(den, spec, p)
    if not np.all(bottom > 0):
        raise ValueError("zero input field")
    return bottom


# Samples per block of nested_lp_norms: its memory stays a few arrays of
# this size, whatever the grid size.
_BLOCK_POINTS = 1 << 18


def nested_lp_norms(spec: GridSpec, p: float | tuple, cutoffs, block) -> np.ndarray:
    """Riemann-sum L^p norms over the nested regions {rho > c}, one per cutoff.

    ``block(rows)`` returns ``(rho, density)`` for the samples whose axis-0
    index lies in the slice ``rows``, ``density`` being |f|^p; a sample it
    leaves out lies in no region.  For a tuple of m exponents ``p``,
    ``density`` has one row per exponent, binned by the same ``rho``, and
    the result a leading axis of length m.  ``cutoffs`` must be strictly
    decreasing.  Each sample is binned once by the number of cutoffs it
    exceeds, and per-shell sums accumulated from the outside in give every
    region, so the grid is walked once, in row blocks.  Entry i equals
    ``lp_norm(f, p, rho > cutoffs[i])`` up to summation order; an empty
    region yields 0 with a warning.
    """
    ps = np.array(p if isinstance(p, tuple) else (p,), dtype=float)
    if not np.all(ps >= 1):
        raise ValueError(f"p must be >= 1, got {p}")
    ascending = np.asarray(cutoffs, dtype=float)[::-1]
    if not np.all(np.diff(ascending) > 0):
        raise ValueError("cutoffs must be strictly decreasing")
    k = ascending.size
    mass = np.zeros((ps.size, k + 1))
    top = 0
    rows = max(1, _BLOCK_POINTS // spec.n ** (spec.d - 1))
    for start in range(0, spec.n, rows):
        rho, density = block(slice(start, start + rows))
        # shell j holds the samples above exactly j cutoffs (strict >)
        shell = np.searchsorted(ascending, np.ravel(rho), side="left")
        mass += [np.bincount(shell, row, minlength=k + 1) for row in density.reshape(ps.size, -1)]
        top = max(top, int(shell.max(initial=0)))
        del rho, density, shell  # not held while the next block is built
    # region i (cutoffs[i]) is shells k - i .. k, empty unless a sample reached k - i
    if top < k:
        warnings.warn("lp_norm over an empty region", stacklevel=2)
    norms = (np.cumsum(mass[:, ::-1], axis=1)[:, :-1] * spec.cell_volume) ** (1.0 / ps[:, None])
    return norms if isinstance(p, tuple) else norms[0]


def weak_l1(f: Field) -> float:
    """Discrete Chebyshev functional sup_lambda lambda * |{|f| > lambda}|.

    The supremum is attained at a sampled |value|: with v_(1) >= v_(2) >= ...
    the k-th candidate is v_(k) * (k * h^d).
    """
    v = np.sort(np.abs(f.flat()))[::-1]
    k = np.arange(1, v.size + 1, dtype=np.float64)
    return float(np.max(v * k) * f.spec.cell_volume)


def write_field(f: Field, path) -> None:
    """Write a field in the RZF1 binary format (bit-exact round trip)."""
    payload = f.values.astype("<f8", copy=False).tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(RZF1_MAGIC)
        fh.write(_HEADER.pack(f.spec.d, f.spec.n, f.spec.R))
        fh.write(payload)


def read_field(path) -> Field:
    """Read a field written by :func:`write_field`."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != RZF1_MAGIC:
        raise ValueError(f"{path}: not an RZF1 field file")
    d, n, R = _HEADER.unpack_from(raw, 4)
    spec = GridSpec(d=d, n=n, R=R)
    start = 4 + _HEADER.size
    expected = spec.num_points * 8
    if len(raw) - start != expected:
        raise ValueError(
            f"{path}: payload has {len(raw) - start} bytes, expected {expected}"
        )
    vals = np.frombuffer(raw, dtype="<f8", count=spec.num_points, offset=start)
    return Field(spec, vals.reshape(spec.shape).copy())
