"""Diagonal Fourier-multiplier calculus on the torus.

The fixed multiplier catalog covers the heat semigroup, the Laplacian and
its fractional powers, coordinate derivatives, and the classical Riesz
transforms.  All act as pointwise symbols m(xi) in frequency, with
xi = (pi/R) * k per axis, k integer in [-n/2, n/2).

:func:`apply_symbol_stack` is the one FFT multiplier, on real stacks: it
applies the symbol's Hermitian part by real-to-complex transforms over the
field axes.  The per-field residue check runs only when the symbol has a
nonzero anti-Hermitian part (:func:`hermitian_parts`), which no catalog
symbol has.  :func:`apply_multiplier` is that call on one field.

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


class TransformResidueError(RuntimeError):
    """Output of a real multiplier application had a non-real residue."""


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
        if self.axis is not None and self.axis > spec.d:
            raise ValueError(f"axis {self.axis} out of range for d={spec.d}")
        return _symbol(self, spec)


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
def _symbol(m: MultiplierSpec, spec: GridSpec) -> np.ndarray:
    xi2 = _xi_squared(spec)
    if m.tag == "heat":
        sym = np.exp(-m.t * xi2)
    elif m.tag == "lap":
        sym = -xi2
    elif m.tag == "sqrt_lap":
        sym = np.sqrt(xi2)
    elif m.tag == "inv_sqrt_lap":
        sym = _safe_inverse(np.sqrt(xi2))
    elif m.tag == "inv_lap":
        sym = _safe_inverse(xi2)
    elif m.tag == "deriv":
        sym = 1j * _odd_axis_freq(spec, m.axis - 1)
    else:  # riesz
        sym = 1j * _odd_axis_freq(spec, m.axis - 1) * _safe_inverse(np.sqrt(xi2))
    sym.setflags(write=False)
    return sym


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
    return Field(f.spec, apply_symbol_stack(f.values, m.symbol(f.spec), f.spec.d))


def hermitian_parts(symbol: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(m(xi) + conj m(-xi))/2 and (m(xi) - conj m(-xi))/2 over the last d axes.

    A real field has a Hermitian spectrum, so the first part maps it to a
    real field and the second to an imaginary one.  Every catalog symbol is
    exactly Hermitian on the grid: its second part is exactly zero.
    """
    mirror = np.conj(symbol)  # conj m(-xi): index k -> -k mod n on each field axis
    for a in range(symbol.ndim - d, symbol.ndim):
        mirror = mirror.take(-np.arange(symbol.shape[a]) % symbol.shape[a], axis=a)
    return 0.5 * (symbol + mirror), 0.5 * (symbol - mirror)


def apply_symbol_stack(stack: np.ndarray, symbol: np.ndarray, d: int) -> np.ndarray:
    """FFT, pointwise symbol, inverse FFT over the last d axes of a real stack.

    The symbol broadcasts: (k, *grid) symbols on a (batch, 1, *grid) stack
    give (batch, k, *grid).  The symbol's Hermitian part gives the output,
    through rfftn/irfftn on the half spectrum.  Only when its anti-Hermitian
    part is nonzero does a complex transform pair run, on that part alone:
    its response is the imaginary residue the complex transform of the whole
    symbol would leave.  A residue above 1e-10 of a field's own scale
    (max |out|, max |input|) signals an internal inconsistency and raises.
    """
    axes = tuple(range(stack.ndim - d, stack.ndim))
    shape = stack.shape[-d:]
    hermitian, skew = hermitian_parts(symbol, d)
    half = hermitian[..., : shape[-1] // 2 + 1]
    out = np.fft.irfftn(np.fft.rfftn(stack, axes=axes) * half, s=shape, axes=axes)
    if skew.any():
        residue = np.fft.ifftn(np.fft.fftn(stack, axes=axes) * skew, axes=axes).imag
        residue = np.abs(residue).max(axis=axes)
        scale = np.maximum(np.abs(out).max(axis=axes), np.abs(stack).max(axis=axes))
        bad = residue > 1e-10 * np.maximum(scale, 1e-300)
        if np.any(bad):
            i = np.unravel_index(np.argmax(bad), bad.shape)
            raise TransformResidueError(
                f"symbol left imaginary residue {residue[i]:.3e} (scale {scale[i]:.3e})"
            )
    return out
