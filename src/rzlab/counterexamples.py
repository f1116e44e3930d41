"""Explicit counterexample data and divergence-rate scans.

Three constructions certify that boundedness fails outside 1 < p <= 2:

1. An axially singular potential V = r12^(eps-2) (r12 the distance to a
   codimension-2 axis) with an explicit series solution v of
   (-Delta + V) v = 0.  The first Riesz component of the cutoff solution
   leaves L^p: its near-axis profile is |x1| r12^(eps-2), and the scan
   fits the growth rate of the restricted p-norm as the inner radius
   shrinks.
2. A slab-singular potential on the unit ball whose sqrt(V)-weighted
   inverse square root admits the pointwise lower bound |x1|^(-1/p) on
   the ball; the scanned mass grows like ln(1/delta).
3. A bounded Green-bounded potential whose weighted transform decays too
   slowly at infinity: the radial tail integral grows like ln ln rho.

Every scan runs in ambient dimension AMBIENT_D = 3 and is named in
:data:`SCANS`.  Scans 1 and 2 run on grids fine enough that the smallest
cutoff stays above four cells; scan 3 is a pure radial quadrature.  The
series itself is validated separately (:func:`ce1_residual`): on a 2D
section of the singular plane, a local finite-difference Laplacian
applied to the sampled v must cancel V v away from the axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import potentials
from .grid import Field, GridSpec, nested_lp_norms

# Construction constants and gates of the scans.
AMBIENT_D = 3  # the lowest dimension in which all three constructions live
AXIAL_RTOL, AXIAL_MAX_TERMS = 1e-14, 200  # when axial_series stops adding terms
CE1_AMBIENT_R = 2.5  # half-width of the box the AMBIENT_D - 2 flat coordinates span
CE1_R2_THRESHOLD, CE1_SLOPE_TOL = 0.98, 0.05
CE2_PROFILE_N = 16384  # samples of the 1D profile on [-1, 1)
CE2_R2_THRESHOLD = 0.99
CE3_INNER_RADIUS, CE3_REL_TOL = 100.0, 0.05
GREEN_SAMPLE_RADII = (0.0, 0.5, 1.0, 5.0, 50.0)
_PANELS_PER_DECADE, _PANEL_ORDER = 8, 16  # the Gauss-Legendre panels of _log_panel_quad
_PANEL_RULE = leggauss(_PANEL_ORDER)


def unit_ball_volume(k: int) -> float:
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


def unit_sphere_area(k: int) -> float:
    """Surface area of the unit sphere S^(k-1) in R^k."""
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


# ---------------------------------------------------------------------------
# series solution v with (-Delta + r12^(eps-2)) v = 0


def axial_series(r: np.ndarray, eps: float):
    """Sum the series v(r) = sum_m r^(eps m) / (eps^(2m) (m!)^2) and its
    radial derivative factor G(r) = r v'(r) = sum_m (eps m) r^(eps m) / ...

    Returns (v, G, terms_used).  Terms are added until the next one is
    below AXIAL_RTOL of the running sum everywhere.
    """
    r = np.asarray(r, dtype=float)
    z = np.where(r > 0, r, 0.0) ** eps
    term = np.ones_like(z)
    v = np.ones_like(z)
    g = np.zeros_like(z)
    m = 0
    while m < AXIAL_MAX_TERMS:
        m += 1
        term = term * z / (eps * eps * m * m)
        v += term
        g += eps * m * term
        if np.all(term <= AXIAL_RTOL * v):
            break
    return v, g, m


def ce1_residual(grid: GridSpec, eps: float) -> dict:
    """Relative residual of (-Delta + V) v away from the axis, and min v.

    The series depends only on the two singular-plane coordinates, so it
    is sampled on the grid's 2D section, where the residual is evaluated
    with a sixth-order local Laplacian.  Excluded: a 4h tube around the
    axis (capping region) and three cells at the box folds, where the
    periodic continuation of the non-periodic solution has a kink.
    """
    if not 0 < eps < 1:
        raise ValueError(f"CE1 exponent eps must lie in (0, 1), got {eps}")
    n, h = grid.n, grid.h
    ax = grid.axis()
    x1, x2 = np.meshgrid(ax, ax, indexing="ij")
    r = np.sqrt(x1**2 + x2**2)
    v2, _, _ = axial_series(r, eps)

    # 6th-order 7-point second difference: near the 4h cutoff the relative
    # truncation error is resolution-independent, so stencil order is what
    # buys accuracy there.
    coef = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / (180.0 * h * h)

    def dxx(a: np.ndarray, axis: int) -> np.ndarray:
        return sum(c * np.roll(a, k, axis) for c, k in zip(coef, range(-3, 4)))

    lap = dxx(v2, 0) + dxx(v2, 1)
    with np.errstate(divide="ignore"):
        Vv = np.where(r > 0, r ** (eps - 2.0), np.inf) * v2
    residual = np.abs(-lap + Vv)

    interior = np.zeros(n, dtype=bool)
    interior[3 : n - 3] = True
    region = (r > 4.0 * h) & interior[:, None] & interior[None, :]
    return {
        "relative": float(np.max(residual[region])) / float(np.max(Vv[region])),
        "v_min": float(v2.min()),
    }


# ---------------------------------------------------------------------------
# divergence scans


@dataclass(frozen=True, eq=False)
class ScanReport:
    kind: str
    xs: np.ndarray
    values: np.ndarray
    fit_slope: float
    fit_r2: float
    expected_slope: float | None
    verdict: str
    extras: dict = field(default_factory=dict)


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and r^2 of y against x."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return float(slope), r2


# Two points fit any line with r^2 = 1, so a scan's fit needs a third to judge.
_MIN_SCAN_POINTS = 3


def _check_deltas(deltas, h: float) -> np.ndarray:
    deltas = np.asarray(deltas, dtype=float)
    if not np.all(np.diff(deltas) < 0):
        raise ValueError("deltas must be strictly decreasing")
    if deltas.size and deltas[-1] < 4.0 * h:
        raise ValueError(
            f"smallest delta {deltas[-1]:g} is below 4h = {4 * h:g}; refine the grid"
        )
    if deltas.size < _MIN_SCAN_POINTS:
        raise ValueError(f"a scan needs at least {_MIN_SCAN_POINTS} cutoffs, got {deltas.size}")
    return deltas


def ce1_scan(eps: float | tuple, p: float | tuple, deltas=None, *, section_n: int = 4096):
    """Restricted p-norm growth of the near-axis profile |x1| r^(eps-2).

    A(delta) is the p-norm over delta < r < 1/2 on a fine 2D section of
    the singular plane (the profile is constant in the remaining ambient
    coordinates, which contribute a fixed volume factor).  For admissible
    eps the log-log slope is eps - 1 + 2/p; past the admissibility
    threshold the norm converges and the slope flattens to ~0.

    ``eps`` and ``p`` may be equal-length tuples: one walk then serves every
    pair and returns a tuple of reports.  A float pair is the one-element walk.
    """
    walk = isinstance(eps, tuple)
    eps_t, p_t = (tuple(eps), tuple(p)) if walk else ((eps,), (p,))
    if not eps_t or len(eps_t) != len(p_t):
        raise ValueError(f"CE1 needs equal-length, nonempty eps and p, got {eps} and {p}")
    pairs = list(zip(eps_t, p_t))
    for e, q in pairs:
        if not math.isfinite(e):
            raise ValueError(f"CE1 exponent eps must be finite, got {e}")
        if not (math.isfinite(q) and q >= 1):
            raise ValueError(f"CE1 needs a finite p >= 1, got {q}")
    if deltas is None:
        # The pure power law emerges only for delta well inside the outer
        # radius 1/2; larger deltas see the outer-boundary curvature.
        deltas = 2.0 ** np.linspace(-5, -9, 9)
    section = GridSpec(2, section_n, 0.5625)
    deltas = _check_deltas(deltas, section.h)
    if deltas[0] >= 0.5:
        raise ValueError("deltas must stay below the outer radius 1/2")

    # The profile is even in x1 and x2, and k -> n - k mirrors the axis about
    # k = n/2 (at 0; k = 0 lies outside the disk): walk the quadrant x1, x2 >= 0.
    ax = section.axis()[section_n // 2 :]
    ax2 = ax**2
    mult = np.where(ax > 0, 4.0, 2.0)  # samples each quadrant sample stands for, by x2
    log_ax = np.log(ax, out=np.full_like(ax, -np.inf), where=ax > 0)

    def disk_rows(rows: slice):
        # |x1 r^(eps-2)|^p from logs every pair shares; the origin lies in no region
        r = np.sqrt(ax2[rows, None] + ax2)
        inside = (r < 0.5) & (r > 0)
        r = r[inside]
        log_r = np.log(r)
        log_x1 = np.broadcast_to(log_ax[rows, None], inside.shape)[inside]
        weight = np.broadcast_to(mult, inside.shape)[inside]
        density = np.empty((len(pairs), r.size))
        for row, (e, q) in zip(density, pairs):
            np.exp(q * ((e - 2.0) * log_r + log_x1), out=row)
        density *= weight
        return r, density

    quadrant = GridSpec(2, section_n // 2, section.R / 2.0)  # same h; needs n/2 even
    reports = []
    for (e, q), values in zip(pairs, nested_lp_norms(quadrant, p_t, deltas, disk_rows)):
        values = (2.0 * CE1_AMBIENT_R) ** ((AMBIENT_D - 2) / q) * values
        slope, r2 = _linear_fit(np.log(deltas), np.log(values))
        expected = e - 1.0 + 2.0 / q
        admissible = e < 1.0 - 2.0 / q
        if r2 < CE1_R2_THRESHOLD and admissible:
            verdict = "inconclusive"
        elif admissible:
            verdict = "pass" if abs(slope - expected) <= CE1_SLOPE_TOL else "fail"
        else:
            verdict = "pass" if slope >= -0.02 else "fail"
        reports.append(ScanReport(
            "ce1", deltas, values, slope, r2, expected if admissible else None,
            verdict, extras={"section": section},
        ))
    return tuple(reports) if walk else reports[0]


def ce2_lower_bound_field(grid: GridSpec, p: float) -> Field:
    """The lower-bound profile |x1|^(-1/p) on the unit ball, 0 elsewhere.

    Sampled with the half-cell cap; nonnegative and ball-supported.
    """
    pts = np.stack(grid.mesh(), axis=-1)
    a = np.abs(pts[..., 0])
    cap = (grid.h / 2.0) ** (-1.0 / p)
    with np.errstate(divide="ignore"):
        vals = np.where(a > 0, np.minimum(a ** (-1.0 / p), cap), cap)
    vals[(pts**2).sum(axis=-1) >= 1.0] = 0.0
    return Field(grid, vals)


def ce2_scan(p: float, deltas=None) -> ScanReport:
    """Mass of the p-th power of the ball lower bound outside |x1| < delta.

    The transverse directions integrate to the exact slice volume, so the
    mass reduces to a 1D profile |x1|^(-1) * vol_{d-1}(slice); it must
    grow linearly in ln(1/delta).  p does not enter the mass, by
    construction: the p-th power of |x1|^(-1/p) is |x1|^(-1) for every p.
    """
    if not (math.isfinite(p) and p > 2):
        # the rule of potentials.ce2
        raise ValueError(f"CE2 needs a finite p > 2, got {p}")
    if deltas is None:
        deltas = 2.0 ** (-np.arange(3, 11, dtype=float))
    profile = GridSpec(1, CE2_PROFILE_N, 1.0)
    deltas = _check_deltas(deltas, profile.h)
    if deltas[0] >= 1.0:
        raise ValueError("deltas must stay below the profile's support radius 1")

    x = profile.axis()
    slice_vol = unit_ball_volume(AMBIENT_D - 1) * np.maximum(0.0, 1.0 - x**2) ** (
        (AMBIENT_D - 1) / 2.0
    )
    with np.errstate(divide="ignore"):
        density = np.where(np.abs(x) > 0, slice_vol / np.abs(x), 0.0)
    values = nested_lp_norms(
        profile, 1.0, deltas, lambda rows: (np.abs(x[rows]), density[rows])
    )
    slope, r2 = _linear_fit(np.log(1.0 / deltas), values)
    verdict = "pass" if r2 > CE2_R2_THRESHOLD else "inconclusive"
    return ScanReport(
        kind="ce2",
        xs=deltas,
        values=values,
        fit_slope=slope,
        fit_r2=r2,
        expected_slope=None,
        verdict=verdict,
    )


def _log_panel_quad(fn, a: float, b: float) -> float:
    """Gauss-Legendre panels on a log-spaced subdivision of [a, b]."""
    decades = math.log10(b / a)
    panels = max(2, math.ceil(decades * _PANELS_PER_DECADE))
    edges = np.geomspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    rad = 0.5 * (edges[1:] - edges[:-1])
    nodes, weights = _PANEL_RULE
    x = (mid[:, None] + rad[:, None] * nodes).ravel()
    return float(np.sum((rad[:, None] * weights).ravel() * fn(x)))


def ce3_tail(rho: float) -> float:
    """Radial tail integral of the decay bound between CE3_INNER_RADIUS and rho."""
    area = unit_sphere_area(AMBIENT_D)
    return area * _log_panel_quad(
        lambda r: 1.0 / ((1.0 + r) * np.log(4.0 + r)), CE3_INNER_RADIUS, rho
    )


def ce3_scan(rhos=None) -> ScanReport:
    """Tail growth of the decay bound: increments track ln ln rho."""
    if rhos is None:
        rhos = np.array([1e3, 1e6, 1e12])
    rhos = np.asarray(rhos, dtype=float)
    if not np.all(np.diff(rhos) > 0):
        raise ValueError("radii must be strictly increasing")
    if not (np.all(np.isfinite(rhos)) and np.all(rhos >= CE3_INNER_RADIUS)):
        raise ValueError(f"radii must be finite and at least the inner radius {CE3_INNER_RADIUS:g}")
    if rhos.size < _MIN_SCAN_POINTS:
        raise ValueError(f"a scan needs at least {_MIN_SCAN_POINTS} radii, got {rhos.size}")
    values = np.array([ce3_tail(rho) for rho in rhos])
    lnln = np.log(np.log(rhos))
    area = unit_sphere_area(AMBIENT_D)
    rel = np.abs(np.diff(values) / (area * np.diff(lnln)) - 1.0)
    slope, r2 = _linear_fit(lnln, values)
    verdict = "pass" if np.all(rel <= CE3_REL_TOL) else "fail"
    return ScanReport(
        kind="ce3",
        xs=rhos,
        values=values,
        fit_slope=slope,
        fit_r2=r2,
        expected_slope=area,
        verdict=verdict,
        extras={"increment_rel_err": rel},
    )


class Scan(NamedTuple):
    run: Callable[..., ScanReport]  # run(*params, xs), xs its cutoffs or radii
    params: dict[str, float]  # name -> default, in call order
    x_name: str


SCANS = {
    "CE1": Scan(ce1_scan, {"eps": 0.25, "p": 4.0}, "delta"),
    "CE2": Scan(ce2_scan, {"p": 4.0}, "delta"),
    "CE3": Scan(ce3_scan, {}, "rho"),
}


def divergence_scan(which: str, params: dict | None = None, deltas=None) -> ScanReport:
    """Run a scan of :data:`SCANS` over ``deltas``, its cutoffs (CE3: radii)."""
    scan = SCANS.get(which.upper())
    if scan is None:
        raise ValueError(f"unknown scan {which!r}; choose from {', '.join(SCANS)}")
    params = params or {}
    unknown = [k for k in params if k not in scan.params]
    if unknown:
        raise ValueError(f"scan {which} takes no parameter {unknown[0]!r}")
    return scan.run(*(params.get(k, v) for k, v in scan.params.items()), deltas)


# ---------------------------------------------------------------------------
# Green-boundedness


@dataclass(frozen=True)
class GreenBoundReport:
    """Truncated supremum, its tail bound, and the tail-corrected estimate.

    ``sup_estimate = sup_truncated + tail_bound`` is an upper estimate of
    the true supremum and is what stabilizes as the truncation grows; the
    truncated value alone keeps creeping up at the tail-bound rate.
    """

    sup_truncated: float
    tail_bound: float
    divergent: bool

    @property
    def sup_estimate(self) -> float:
        return self.sup_truncated + self.tail_bound


def green_bounded_check(
    V: potentials.PotentialSpec, d: int, radius_cap: float = 1e3
) -> GreenBoundReport:
    """Truncated sup_x int V(y) |x-y|^(2-d) dy for radial potentials.

    The spherical average of |x-y|^(2-d) over |y| = s is max(|x|, s)^(2-d)
    (mean value property), so the integral reduces to one radial
    quadrature per radius in GREEN_SAMPLE_RADII, with V at (s, 0, ..., 0).
    Divergence is flagged when doubling the truncation radius moves the
    answer by more than 10%.
    """
    if d < 3:
        raise ValueError("Green-boundedness is a d >= 3 criterion")
    if V.tag not in ("zero", "const", "harmonic", "ce3"):
        raise ValueError(f"radial reduction unavailable for tag {V.tag!r}")
    area = unit_sphere_area(d)

    def value_at(x: float, cap: float) -> float:
        def integrand(s: np.ndarray) -> np.ndarray:
            on_axis = np.pad(s[:, None], ((0, 0), (0, d - 1)))
            return potentials.eval_capped(V, on_axis) * s ** (d - 1) * np.maximum(x, s) ** (2 - d)

        return area * _log_panel_quad(integrand, 1e-9 * max(1.0, x), cap)

    vals = [value_at(r, radius_cap) for r in GREEN_SAMPLE_RADII]
    vals2 = [value_at(r, 2.0 * radius_cap) for r in GREEN_SAMPLE_RADII]
    sup1, sup2 = max(vals), max(vals2)
    divergent = sup2 > 1.1 * sup1
    if V.tag == "ce3":
        # beyond the cap the integrand is below 1/(s ln^2 s), whose tail is 1/ln
        tail = area / math.log(radius_cap)
    elif divergent:
        tail = math.inf
    else:
        tail = sup2 - sup1
    return GreenBoundReport(
        sup_truncated=sup1,
        tail_bound=tail,
        divergent=divergent,
    )
