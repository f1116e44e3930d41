"""Diagonal Fourier-multiplier calculus on the torus.

The fixed multiplier catalog covers the heat semigroup, the Laplacian and
its fractional powers, coordinate derivatives, and the classical Riesz
transforms.  All act as pointwise symbols m(xi) in frequency, with
xi = (pi/R) * k per axis, k integer in [-n/2, n/2).

:func:`apply_symbol_stack` is the one FFT multiplier, on real stacks: it
takes a catalog spec (or a tuple of them, one per output component), looks
up that spec's cached half spectrum and runs only real-to-complex
transforms over the field axes.  How a symbol is stored is known here
alone.  :func:`apply_multiplier` is that call on one field.

Conventions: negative powers and Riesz multipliers send the mean mode to
zero.  Odd symbols (Deriv, Riesz) also vanish on their axis Nyquist plane
k_j = -n/2, which has no conjugate partner on an even grid; keeping the
raw symbol there would make real fields map to complex ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, GridSpec


_TAGS = ("heat", "lap", "sqrt_lap", "inv_sqrt_lap", "inv_lap", "deriv", "riesz")


@dataclass(frozen=True)
class MultiplierSpec:
    """One member of the fixed symbol catalog.

    ``axis`` is 1-based for the axis-indexed tags; ``t`` is the heat time.
    """

    tag: str
    t: float | None = None
    axis: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in _TAGS:
            raise ValueError(f"unknown multiplier tag {self.tag!r}")
        if self.tag == "heat":
            if self.t is None or self.t < 0:
                raise ValueError("heat multiplier needs a time t >= 0")
        elif self.t is not None:
            raise ValueError(f"{self.tag} takes no time parameter")
        if self.tag in ("deriv", "riesz"):
            if self.axis is None or self.axis < 1:
                raise ValueError(f"{self.tag} needs a 1-based axis index")
        elif self.axis is not None:
            raise ValueError(f"{self.tag} takes no axis parameter")

    def symbol(self, spec: GridSpec) -> np.ndarray:
        """The full symbol m(xi) on the grid's frequency mesh."""
        if self.axis is not None and self.axis > spec.d:
            raise ValueError(f"axis {self.axis} out of range for d={spec.d}")
        xi2 = _xi_squared(spec)
        if self.tag == "heat":
            return np.exp(-self.t * xi2)
        if self.tag == "lap":
            return -xi2
        if self.tag == "sqrt_lap":
            return np.sqrt(xi2)
        if self.tag == "inv_sqrt_lap":
            return _safe_inverse(np.sqrt(xi2))
        if self.tag == "inv_lap":
            return _safe_inverse(xi2)
        odd = 1j * _odd_axis_freq(spec, self.axis - 1)
        return odd if self.tag == "deriv" else odd * _safe_inverse(np.sqrt(xi2))


def heat(t: float) -> MultiplierSpec:
    return MultiplierSpec("heat", t=float(t))


def laplacian() -> MultiplierSpec:
    return MultiplierSpec("lap")


def sqrt_laplacian() -> MultiplierSpec:
    return MultiplierSpec("sqrt_lap")


def inv_sqrt_laplacian() -> MultiplierSpec:
    return MultiplierSpec("inv_sqrt_lap")


def inv_laplacian() -> MultiplierSpec:
    return MultiplierSpec("inv_lap")


def derivative(axis: int) -> MultiplierSpec:
    return MultiplierSpec("deriv", axis=axis)


def riesz(axis: int) -> MultiplierSpec:
    return MultiplierSpec("riesz", axis=axis)


@lru_cache(maxsize=256)
def _half_spectrum(m: MultiplierSpec | tuple[MultiplierSpec, ...], spec: GridSpec) -> np.ndarray:
    """(m(xi) + conj m(-xi))/2 on the rfftn half spectrum, stacked over a tuple.

    A real field has a Hermitian spectrum, so this part of a symbol maps it
    to the real part of the full complex transform.  Every catalog symbol
    is exactly Hermitian on the grid, so the part is the symbol itself.
    """
    sym = np.stack([x.symbol(spec) for x in m]) if isinstance(m, tuple) else m.symbol(spec)
    mirror = np.conj(sym)  # conj m(-xi): index k -> -k mod n on each field axis
    for a in range(sym.ndim - spec.d, sym.ndim):
        mirror = mirror.take(-np.arange(spec.n) % spec.n, axis=a)
    # a copy, so that the cache does not keep the whole spectrum alive
    half = np.ascontiguousarray((0.5 * (sym + mirror))[..., : spec.n // 2 + 1])
    half.setflags(write=False)
    return half


@lru_cache(maxsize=64)
def _xi_squared(spec: GridSpec) -> np.ndarray:
    xi2 = sum(x * x for x in spec.freq_mesh())
    xi2.setflags(write=False)
    return xi2


def _safe_inverse(a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    np.divide(1.0, a, out=out, where=a > 0)
    return out


def _odd_axis_freq(spec: GridSpec, axis0: int) -> np.ndarray:
    # Zero the unpaired -n/2 mode so real fields stay real under odd symbols.
    f = spec.freq_axis().copy()
    f[spec.n // 2] = 0.0
    shape = [1] * spec.d
    shape[axis0] = spec.n
    return np.broadcast_to(f.reshape(shape), spec.shape).copy()


def apply_multiplier(f: Field, m: MultiplierSpec) -> Field:
    """Apply a catalog multiplier to one field (see :func:`apply_symbol_stack`)."""
    return Field(f.spec, apply_symbol_stack(f.values, m, f.spec))


def apply_symbol_stack(stack: np.ndarray, m: MultiplierSpec | tuple[MultiplierSpec, ...],
                       spec: GridSpec) -> np.ndarray:
    """Catalog multiplier m on the last d axes of a real stack on the grid ``spec``.

    A tuple of specs gives one output component each: on a (batch, 1, *grid)
    stack it gives (batch, k, *grid).  One rfftn, a product with the cached
    half spectrum, one irfftn.
    """
    axes = tuple(range(stack.ndim - spec.d, stack.ndim))
    spectrum = np.fft.rfftn(stack, axes=axes) * _half_spectrum(m, spec)
    return np.fft.irfftn(spectrum, s=spec.shape, axes=axes)
