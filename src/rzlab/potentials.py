"""Catalog of nonnegative potentials and their grid discretization.

Tags:
  zero      V = 0
  const     V = c >= 0
  harmonic  V = ||x||^2
  ce1       V = (x1^2 + x2^2)^((eps-2)/2), singular on the x1 = x2 = 0 axis
  ce2       V = |x1|^(-2/p) restricted to the unit ball, singular on x1 = 0
  ce3       V = (1+|x|)^-2 * (ln(4+|x|))^-2, bounded
  custom    arbitrary nonnegative samples supplied as a Field

Singular tags are capped on the grid; the "auto" cap evaluates the formula
at radial distance h/2 from the singular set, which keeps the discrete
operator bounded while preserving the local-integrability scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec


class SingularPotentialError(ValueError):
    """Requested an exact evaluation on the singular set."""


class GridMismatchError(ValueError):
    """A potential cannot be sampled on the grid asked for.

    A custom potential's samples lie on another grid, or ce1 is asked for
    at d = 1.
    """


@dataclass(frozen=True)
class PotentialSpec:
    tag: str
    c: float = 0.0
    eps: float = 0.0
    p: float = 0.0
    field: Field | None = None

    def __post_init__(self) -> None:
        if self.tag not in ("zero", "const", "harmonic", "ce1", "ce2", "ce3", "custom"):
            raise ValueError(f"unknown potential tag {self.tag!r}")
        if self.tag == "const" and self.c < 0:
            raise ValueError("constant potential must be >= 0")
        if self.tag == "ce1" and not 0 < self.eps < 1:
            raise ValueError(f"ce1 exponent must lie in (0, 1), got {self.eps}")
        if self.tag == "ce2" and not self.p > 2:
            raise ValueError(f"ce2 requires p > 2, got {self.p}")
        if self.tag == "custom" and self.field is None:
            raise ValueError("custom potential needs a Field")
        if self.tag == "custom" and np.any(self.field.values < 0):
            raise ValueError("custom potential must be nonnegative")

    def label(self) -> str:
        if self.tag == "const":
            return f"const({self.c:g})"
        if self.tag == "ce1":
            return f"ce1({self.eps:g})"
        if self.tag == "ce2":
            return f"ce2({self.p:g})"
        return self.tag


def zero() -> PotentialSpec:
    return PotentialSpec("zero")


def const(c: float) -> PotentialSpec:
    return PotentialSpec("const", c=float(c))


def harmonic() -> PotentialSpec:
    return PotentialSpec("harmonic")


def ce1(eps: float) -> PotentialSpec:
    return PotentialSpec("ce1", eps=float(eps))


def ce2(p: float) -> PotentialSpec:
    return PotentialSpec("ce2", p=float(p))


def ce3() -> PotentialSpec:
    return PotentialSpec("ce3")


def custom(field: Field) -> PotentialSpec:
    return PotentialSpec("custom", field=field)


def eval_potential(spec: PotentialSpec, x) -> float:
    """Exact formula value at a point off the singular set."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError(f"point must be finite, got {x}")
    if spec.tag == "zero":
        return 0.0
    if spec.tag == "const":
        return spec.c
    if spec.tag == "harmonic":
        return float(np.dot(x, x))
    if spec.tag == "ce1":
        if len(x) < 2:
            raise ValueError("ce1 needs at least 2 coordinates")
        r2 = float(x[0] ** 2 + x[1] ** 2)
        if r2 == 0.0:
            raise SingularPotentialError("ce1 is singular on the x1 = x2 = 0 axis")
        return r2 ** ((spec.eps - 2.0) / 2.0)
    if spec.tag == "ce2":
        if float(np.dot(x, x)) >= 1.0:
            return 0.0
        if x[0] == 0.0:
            raise SingularPotentialError("ce2 is singular on the x1 = 0 hyperplane")
        return abs(float(x[0])) ** (-2.0 / spec.p)
    if spec.tag == "ce3":
        r = float(np.linalg.norm(x))
        return (1.0 + r) ** (-2.0) * math.log(4.0 + r) ** (-2.0)
    # custom: nearest grid sample
    f = spec.field
    return float(f.values[f.spec.nearest_index(x)])


def eval_capped(spec: PotentialSpec, pts: np.ndarray, cap: float = math.inf) -> np.ndarray:
    """Vectorized min(V, cap) on an (..., d) array of points.

    Points on a singular set get the cap value.
    """
    pts = np.asarray(pts, dtype=float)
    if spec.tag == "zero":
        return np.zeros(pts.shape[:-1])
    if spec.tag == "const":
        return np.full(pts.shape[:-1], min(spec.c, cap))
    if spec.tag == "harmonic":
        return np.minimum((pts**2).sum(axis=-1), cap)
    if spec.tag == "ce1":
        r2 = pts[..., 0] ** 2 + pts[..., 1] ** 2
        out = np.full(r2.shape, cap)
        ok = r2 > 0
        out[ok] = np.minimum(r2[ok] ** ((spec.eps - 2.0) / 2.0), cap)
        return out
    if spec.tag == "ce2":
        a = np.abs(pts[..., 0])
        out = np.full(a.shape, cap)
        ok = a > 0
        out[ok] = np.minimum(a[ok] ** (-2.0 / spec.p), cap)
        out[(pts**2).sum(axis=-1) >= 1.0] = 0.0
        return out
    if spec.tag == "ce3":
        r = np.sqrt((pts**2).sum(axis=-1))
        return np.minimum((1.0 + r) ** (-2.0) * np.log(4.0 + r) ** (-2.0), cap)
    # custom: nearest grid sample per point
    f = spec.field
    flatpts = pts.reshape(-1, pts.shape[-1])
    vals = np.array([f.values[f.spec.nearest_index(q)] for q in flatpts])
    return np.minimum(vals.reshape(pts.shape[:-1]), cap)


def auto_cap(spec: PotentialSpec, grid: GridSpec) -> float:
    """Formula value at radial distance h/2 from the singular set.

    Non-singular tags have no cap (infinity).
    """
    half = grid.h / 2.0
    if spec.tag == "ce1":
        return half ** (spec.eps - 2.0)
    if spec.tag == "ce2":
        return half ** (-2.0 / spec.p)
    return math.inf


def discretize_potential(spec: PotentialSpec, grid: GridSpec, cap="auto") -> Field:
    """Sample min(V, cap) on the grid; singular points get the cap value."""
    if cap == "auto":
        cap_value = auto_cap(spec, grid)
    else:
        cap_value = float(cap)
        if not cap_value > 0:
            raise ValueError(f"cap must be positive, got {cap}")
    if spec.tag == "ce1" and grid.d < 2:
        raise GridMismatchError(f"ce1 needs d >= 2, the check needs {grid}")
    if spec.tag == "custom":
        if spec.field.spec != grid:
            raise GridMismatchError(
                f"custom potential is sampled on {spec.field.spec}, the check needs {grid}"
            )
        return Field(grid, np.minimum(spec.field.values, cap_value))
    pts = np.stack(grid.mesh(), axis=-1)
    vals = eval_capped(spec, pts, cap_value)
    if not np.all(np.isfinite(vals)):
        raise ValueError("discretized potential has non-finite values; supply a finite cap")
    return Field(grid, vals)


def standard_catalog(d: int, include_zero: bool = True) -> list[PotentialSpec]:
    """The potentials exercised by catalog-wide checks at dimension d."""
    cat = []
    if include_zero:
        cat.append(zero())
    cat.extend([const(2.0), harmonic()])
    if d >= 2:
        cat.append(ce1(0.25))
    cat.extend([ce2(4.0), ce3()])
    return cat
