"""Catalog of nonnegative potentials and their grid discretization.

Tags:
  zero      V = 0
  const     V = c >= 0
  harmonic  V = ||x||^2
  ce1       V = (x1^2 + x2^2)^((eps-2)/2), singular on the x1 = x2 = 0 axis
  ce2       V = |x1|^(-2/p) restricted to the unit ball, singular on x1 = 0
  ce3       V = (1+|x|)^-2 * (ln(4+|x|))^-2, bounded
  custom    arbitrary nonnegative samples supplied as a Field

Singular tags are capped on the grid at :func:`auto_cap`, the formula
value at radial distance h/2 from the singular set, which keeps the
discrete operator bounded while preserving the local-integrability scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec


class GridMismatchError(ValueError):
    """A potential cannot be sampled on the grid or at the points asked for.

    A custom potential's samples lie on another grid or in another
    dimension, or ce1 is asked for at d = 1.
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
        if self.tag == "const" and not 0 <= self.c < math.inf:
            raise ValueError(f"constant potential must be finite and >= 0, got {self.c}")
        if self.tag == "ce1" and not 0 < self.eps < 1:
            raise ValueError(f"ce1 exponent must lie in (0, 1), got {self.eps}")
        if self.tag == "ce2" and not 2 < self.p < math.inf:
            raise ValueError(f"ce2 requires a finite p > 2, got {self.p}")
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
    # custom: the nearest grid sample to each point
    f = spec.field
    return np.minimum(f.values[f.spec.nearest_index(np.moveaxis(pts, -1, 0))], cap)


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


def check_dimension(spec: PotentialSpec, d: int, need: str) -> None:
    """Raise :class:`GridMismatchError` unless spec can be evaluated at d-dimensional points.

    ce1 reads two coordinates, so it needs d >= 2; a custom field only has
    samples at its own d.  ``need`` names what asks for d, for the message.
    """
    if spec.tag == "ce1" and d < 2:
        raise GridMismatchError(f"ce1 needs d >= 2, {need}")
    if spec.tag == "custom" and spec.field.spec.d != d:
        raise GridMismatchError(f"custom potential is a d = {spec.field.spec.d} field, {need}")


def discretize_potential(spec: PotentialSpec, grid: GridSpec) -> Field:
    """Sample min(V, auto_cap) on the grid; singular points get the cap value.

    A custom potential comes back as its own samples, which must lie on ``grid``.
    """
    if spec.tag == "custom":
        if spec.field.spec != grid:
            raise GridMismatchError(
                f"custom potential is sampled on {spec.field.spec}, the check needs {grid}"
            )
        return spec.field
    check_dimension(spec, grid.d, f"the check needs {grid}")
    return Field(grid, eval_capped(spec, np.stack(grid.mesh(), axis=-1), auto_cap(spec, grid)))


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
