"""Riesz transforms attached to L = -Delta + V.

Two algebraically equivalent routes are kept side by side:

* direct:   component j is Deriv(j) applied to L^(-1/2) f;
* factored: g = sqrt(-Delta) L^(-1/2) f first, then the classical Riesz
  multiplier per component.

Both share one realization of L^(-1/2), the dense power
:func:`fracpow.dense_power`, so route disagreement isolates multiplier
algebra; for V = 0 it is the pseudo-inverse on mean-zero fields, and V is
checked against the field's grid as for any other potential.  A
subordinated L^(-1/2) f (:func:`fracpow.frac_power_apply`) enters through
:func:`riesz_from_inv_sqrt`.  :func:`classical_riesz` is the V = 0
transform by multipliers alone, with no dense cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fracpow, spectral
from .grid import Field, lp_norm


@dataclass(frozen=True, eq=False)
class RieszResult:
    components: tuple[Field, ...]
    magnitude: Field
    route: str
    companion: Field | None = None  # g = sqrt(-Delta) L^(-1/2) f on the factored route


def _magnitude(components: tuple[Field, ...]) -> Field:
    sq = sum(c.values**2 for c in components)
    return Field(components[0].spec, np.sqrt(sq))


def inv_sqrt_apply(f: Field, V: Field) -> Field:
    """Dense L^(-1/2) f."""
    return Field(f.spec, fracpow.dense_power(f.spec, V, -0.5, f.values[None])[0])


ROUTES = ("direct", "factored")


def schrodinger_riesz(f: Field, V: Field, *, route: str = "factored") -> RieszResult:
    """All d Riesz components of f with their pointwise l2 magnitude."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    return riesz_from_inv_sqrt(inv_sqrt_apply(f, V), route=route)


def riesz_from_inv_sqrt(half: Field, *, route: str = "factored") -> RieszResult:
    """Riesz components of f given half = L^(-1/2) f, by the chosen route."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    d = half.spec.d
    if route == "direct":
        comps = tuple(
            spectral.apply_multiplier(half, spectral.derivative(j)) for j in range(1, d + 1)
        )
        companion = None
    else:
        companion = spectral.apply_multiplier(half, spectral.sqrt_laplacian())
        comps = tuple(
            spectral.apply_multiplier(companion, spectral.riesz(j)) for j in range(1, d + 1)
        )
    return RieszResult(
        components=comps, magnitude=_magnitude(comps), route=route, companion=companion
    )


def classical_riesz(f: Field) -> RieszResult:
    """Classical Riesz vector (V = 0 multipliers) with magnitude."""
    comps = tuple(
        spectral.apply_multiplier(f, spectral.riesz(j)) for j in range(1, f.spec.d + 1)
    )
    return RieszResult(components=comps, magnitude=_magnitude(comps), route="classical")


def sqrt_potential_inv_sqrt(f: Field, V: Field) -> Field:
    """Pointwise sqrt(V) times L^(-1/2) f."""
    return Field(f.spec, np.sqrt(V.values) * inv_sqrt_apply(f, V).values)


def vector_ratio(result: RieszResult, f: Field, p: float) -> float:
    """||magnitude||_p / ||f||_p on the shared grid."""
    denom = lp_norm(f, p)
    if denom == 0:
        raise ValueError("zero input field")
    return lp_norm(result.magnitude, p) / denom
