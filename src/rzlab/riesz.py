"""Riesz transforms attached to L = -Delta + V, on (batch, *grid shape) stacks.

Two algebraically equivalent routes are kept side by side:

* direct:   component j is Deriv(j) applied to L^(-1/2) f;
* factored: g = sqrt(-Delta) L^(-1/2) f first (:func:`factor_from_inv_sqrt`,
  the one implementation of that factor), then the classical Riesz
  multiplier per component.

:func:`riesz_from_inv_sqrt` takes L^(-1/2) f from either the dense power
:func:`fracpow.dense_power` or the subordinated route (for V = 0 both the
pseudo-inverse, 0 on the constants), so route disagreement isolates
multiplier algebra.  :func:`schrodinger_riesz` is its one-field entry point
on the dense power, and checks V against the field's grid.
:func:`classical_riesz` is the V = 0 transform by multipliers alone, with
no dense cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fracpow, semigroup, spectral
from .grid import Field, GridSpec


@dataclass(frozen=True, eq=False)
class RieszResult:
    components: np.ndarray  # (batch, d, *grid shape)
    magnitude: np.ndarray  # (batch, *grid shape): pointwise l2 norm of the components
    route: str
    companion: np.ndarray | None = None  # g = sqrt(-Delta) L^(-1/2) f on the factored route


ROUTES = ("direct", "factored")


def _vector(stack: np.ndarray, grid: GridSpec, multiplier, route: str,
            companion: np.ndarray | None = None) -> RieszResult:
    """multiplier(j), j = 1..d, applied to each field, with the l2 magnitude."""
    symbols = np.stack([multiplier(j).symbol(grid) for j in range(1, grid.d + 1)])
    comps = spectral.apply_symbol_stack(stack[:, None], symbols, grid.d)
    return RieszResult(components=comps, magnitude=np.sqrt((comps**2).sum(axis=1)),
                       route=route, companion=companion)


def factor_from_inv_sqrt(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """g = sqrt(-Delta) L^(-1/2) f for each field, given half = L^(-1/2) f."""
    return spectral.apply_symbol_stack(half, spectral.sqrt_laplacian().symbol(grid), grid.d)


def riesz_from_inv_sqrt(half: np.ndarray, grid: GridSpec, *,
                        route: str = "factored") -> RieszResult:
    """Riesz vectors of a stack given half = L^(-1/2) f, by the chosen route."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if route == "direct":
        return _vector(half, grid, spectral.derivative, route)
    g = factor_from_inv_sqrt(half, grid)
    return _vector(g, grid, spectral.riesz, route, companion=g)


def classical_riesz(stack: np.ndarray, grid: GridSpec) -> RieszResult:
    """Classical Riesz vectors (V = 0 multipliers) of a stack, with magnitudes."""
    return _vector(stack, grid, spectral.riesz, "classical")


def schrodinger_riesz(f: Field, V: Field, *, route: str = "factored") -> RieszResult:
    """All d Riesz components of one field (a batch of one) with their l2 magnitude."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    semigroup._check_potential(V, f.spec)
    return riesz_from_inv_sqrt(fracpow.dense_power(f.values[None], V, -0.5), f.spec,
                               route=route)


def sqrt_potential_inv_sqrt(stack: np.ndarray, V: Field) -> np.ndarray:
    """Pointwise sqrt(V) times L^(-1/2) f for each field of a stack on V's grid."""
    return np.sqrt(V.values) * fracpow.dense_power(stack, V, -0.5)
