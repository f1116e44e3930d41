"""Check registry: every verified inequality as a named, configured test.

Each check measures its quantities on one grid configuration, compares
them against the bound with an explicit tolerance, and returns a
CheckReport.  Reports are deterministic given (config, seed): every check
derives its RNG from the seed and its own id, so suite scheduling cannot
change results.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import counterexamples, fracpow, potentials, riesz, semigroup, spectral
from .grid import (Field, GridSpec, l2_norms, lp_denominators, lp_norm, lp_norms, lp_ratios,
                   weak_l1)

DENSE_TOL = 1e-6
QUAD_TOL = 1e-3

CORE_CHECKS = (
    "DOMINATION",
    "COMPOSITION",
    "GREEN_MASS",
    "L2_CONTRACT",
    "L1_BOUND",
    "W_KERNEL",
    "INTERP",
    "THEOREM",
    "WEAK11",
    "VHALF",
)
COUNTEREXAMPLE_CHECKS = ("CE1", "CE2", "CE3")
ORACLE_CHECKS = ("FK_ORACLE", "QUAD_VS_DENSE")

SUITES = {
    "core": CORE_CHECKS,
    "counterexamples": COUNTEREXAMPLE_CHECKS,
    "oracles": ORACLE_CHECKS,
    "all": CORE_CHECKS + COUNTEREXAMPLE_CHECKS + ORACLE_CHECKS,
}


def _is_a(value, want: type) -> bool:
    """isinstance for config values: an int passes as a float, a bool as nothing."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if want is float else want)


@dataclass(frozen=True)
class RunConfig:
    """Flat, JSON-serializable run configuration.

    A run is reproducible from this object alone; CLI flags override
    file values field by field.
    """

    d: int = 2
    n: int = 16
    R: float = 4.0
    potential: str = "harmonic"
    p_list: tuple[float, ...] = (1.25, 1.5, 2.0)
    seed: int = 1234
    trials: int = 100
    theorem_trials: int = 72
    quad_tol: float = 1e-6
    tau0: float = fracpow.DEFAULT_SUBORDINATION_STEP
    strang_tau: float = semigroup.DEFAULT_STEP_SIZE
    fk_paths: int = 20000
    fk_slices: int = 64
    out_dir: str = "reports"

    def __post_init__(self) -> None:
        for f in self.__dataclass_fields__.values():
            value, want = getattr(self, f.name), type(f.default)
            if not _is_a(value, want):
                raise ValueError(f"config {f.name} must be {want.__name__}, got {value!r}")
        if not self.p_list or not all(_is_a(p, float) and 1 <= p < math.inf for p in self.p_list):
            raise ValueError(f"config p_list must hold finite numbers >= 1, got {self.p_list!r}")
        for name, low in (("seed", 0), ("trials", 1), ("theorem_trials", 1),
                          ("fk_paths", 1), ("fk_slices", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"config {name} must be >= {low}, got {getattr(self, name)}")
        for name in ("quad_tol", "tau0", "strang_tau"):
            if not getattr(self, name) > 0:
                raise ValueError(f"config {name} must be > 0, got {getattr(self, name)}")
        self.grid()
        parse_potential(self.potential)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(raw.get("p_list"), list):
            raw = dict(raw, p_list=tuple(raw["p_list"]))
        return cls(**raw)

    def grid(self, d: int | None = None, n: int | None = None) -> GridSpec:
        return GridSpec(d if d is not None else self.d, n if n is not None else self.n, self.R)


def parse_potential(text: str) -> potentials.PotentialSpec:
    """Parse "zero", "const:2", "harmonic", "ce1:0.25", "ce2:4", "ce3"."""
    tag, _, arg = text.partition(":")
    tag = tag.strip().lower()
    if arg and tag in ("zero", "harmonic", "ce3"):
        raise ValueError(f"potential {tag!r} takes no argument, got {text!r}")
    if tag == "zero":
        return potentials.zero()
    if tag == "const":
        return potentials.const(float(arg or 2.0))
    if tag == "harmonic":
        return potentials.harmonic()
    if tag == "ce1":
        return potentials.ce1(float(arg or 0.25))
    if tag == "ce2":
        return potentials.ce2(float(arg or 4.0))
    if tag == "ce3":
        return potentials.ce3()
    if tag == "custom":
        from .grid import read_field

        return potentials.custom(read_field(arg))
    raise ValueError(f"unknown potential {text!r}")


@dataclass
class CheckReport:
    check_id: str
    config: dict
    measured: dict
    bound_name: str
    bound_value: float
    measured_value: float
    tolerance: float
    verdict: str
    runtime_s: float = 0.0  # set by run_check

    def __post_init__(self) -> None:
        for name in ("bound_value", "measured_value", "tolerance"):
            setattr(self, name, float(getattr(self, name)))

    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self, include_runtime: bool = True) -> dict:
        raw = asdict(self)
        if not include_runtime:
            del raw["runtime_s"]
        return raw


def rng_for(seed: int, check_id: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(check_id.encode())])


# ---------------------------------------------------------------------------
# trial fields


# Trial fields are drawn this many values at a time: each block is one
# standard_normal call and one fftn/ifftn pair over the field axes, so the
# complex temporaries stay at 1 MB whatever the count.
TRIAL_BLOCK_ELEMENTS = 2**16


def _bandlimited(grid: GridSpec, rng: np.random.Generator, count: int,
                 mean_zero: bool) -> np.ndarray:
    """count random real fields with frequencies at most n/4 per axis, unit l2 norm.

    The same fields, bit for bit, and the same generator state as drawing
    them one field at a time: one draw of grid shape and one transform pair
    each, then np.linalg.norm of that field.
    """
    band = np.abs(np.fft.fftfreq(grid.n) * grid.n) <= grid.n // 4
    keep = np.ones(grid.shape, dtype=bool)
    for a in range(grid.d):
        shape = [1] * grid.d
        shape[a] = grid.n
        keep &= band.reshape(shape)
    keep[(0,) * grid.d] = not mean_zero
    axes = tuple(range(1, grid.d + 1))
    per = max(1, TRIAL_BLOCK_ELEMENTS // grid.num_points)
    out = np.empty((count, *grid.shape))
    for start in range(0, count, per):
        F = np.fft.fftn(rng.standard_normal((min(per, count - start), *grid.shape)), axes=axes)
        F[:, ~keep] = 0.0
        out[start:start + per] = np.fft.ifftn(F, axes=axes).real
    for v in out:
        v /= np.linalg.norm(v)
    return out


def structured_fields(grid: GridSpec, mean_zero: bool) -> np.ndarray:
    """Eight fixed stress fields: near-deltas, indicators, tensor Gaussians.

    On coarse grids an indicator can be empty, or constant and so zero once
    centred; such a field cannot be normalized and is left out.
    """
    R, h = grid.R, grid.h
    pts = np.stack(grid.mesh(), axis=-1)
    r2_center = (pts**2).sum(axis=-1)
    off = np.full(grid.d, R / 3.0)
    r2_off = ((pts - off) ** 2).sum(axis=-1)
    sig_d = 1.2 * h
    out = [
        np.exp(-r2_center / (2 * sig_d**2)),
        np.exp(-r2_off / (2 * sig_d**2)),
        (r2_center < (R / 2) ** 2).astype(float),
        (r2_off < (R / 4) ** 2).astype(float),
        (pts[..., 0] < 0).astype(float),
        np.exp(-r2_center / (2 * (R / 4) ** 2)),
        np.exp(-r2_off / (2 * (R / 8) ** 2)),
        np.exp(-r2_center / (2 * (R / 2) ** 2)),
    ]
    fields = []
    for v in out:
        if mean_zero:
            v = v - v.mean()
        norm = np.linalg.norm(v)
        if norm > 0:
            fields.append(v / norm)
    return np.stack(fields)


def trial_family(
    grid: GridSpec,
    rng: np.random.Generator,
    count: int,
    mean_zero: bool = True,
    structured: bool = True,
) -> np.ndarray:
    """A (count, *grid.shape) stack of unit-l2 trial fields.

    Band-limited draws; with ``structured`` and count > 8 the last eight are
    the :func:`structured_fields` instead, fewer where a coarse grid drops one.
    """
    n_struct = 8 if structured and count > 8 else 0
    fields = _bandlimited(grid, rng, count - n_struct, mean_zero)
    if n_struct:
        fields = np.concatenate([fields, structured_fields(grid, mean_zero)])
    return fields


def nonneg_trials(grid: GridSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """Nonnegative band-limited fields with a small positive floor, max 1 each."""
    v = _bandlimited(grid, rng, count, mean_zero=False)
    axes = tuple(range(1, grid.d + 1))
    v -= v.min(axis=axes, keepdims=True)
    v += 0.05 * v.max(axis=axes, keepdims=True)
    return v / np.abs(v).max(axis=axes, keepdims=True)


def _field_max(stack: np.ndarray) -> np.ndarray:
    """max |value| of each field (or vector field) of a stack."""
    return np.abs(stack).reshape(len(stack), -1).max(axis=1)


def _components_l2(comps: np.ndarray) -> np.ndarray:
    """l2 norm of each vector field of a (batch, d, *grid shape) stack."""
    sums = (comps**2).reshape(*comps.shape[:2], -1).sum(axis=2)
    return np.array([math.sqrt(sum(row)) for row in sums.tolist()])


def _interp_bound(p: float) -> float:
    return 2.0 ** ((2.0 - p) / p)


def _cfg_note(cfg: RunConfig, **extra) -> dict:
    note = asdict(cfg)
    note.update(extra)
    return note


# ---------------------------------------------------------------------------
# individual checks


def check_domination(cfg: RunConfig) -> CheckReport:
    """Pointwise semigroup domination: K_t f <= H_t f + tol for nonneg f."""
    rng = rng_for(cfg.seed, "DOMINATION")
    grid = cfg.grid()
    stack = nonneg_trials(grid, rng, 20)
    pots = [potentials.harmonic()]
    if grid.d >= 2:
        pots.append(potentials.ce1(0.25))
    worst = -math.inf
    per = {}
    for pot in pots:
        V = potentials.discretize_potential(pot, grid)
        for t in (0.1, 0.5, 1.0):
            steps = semigroup.default_steps(t, cfg.strang_tau)
            kt = semigroup.evolve_stack(stack, V, t, steps)
            ht = spectral.apply_symbol_stack(stack, spectral.heat(t), grid)
            excess = float(np.max(kt - ht))
            per[f"{pot.label()}_t{t:g}"] = excess
            worst = max(worst, excess)
    tol = 1e-8
    verdict = "pass" if worst <= tol else "fail"
    note = _cfg_note(cfg, times=[0.1, 0.5, 1.0], catalog=[pot.label() for pot in pots])
    return CheckReport("DOMINATION", note, per, "pointwise_excess", 0.0, worst, tol, verdict)


def check_composition(cfg: RunConfig) -> CheckReport:
    """L^(-1/2) L^(-1/2) = L^(-1) as N x N matrices, read COLUMN_BLOCK columns at a time."""
    grid = cfg.grid()
    V = potentials.discretize_potential(parse_potential(cfg.potential), grid)
    N, block = grid.num_points, semigroup.COLUMN_BLOCK
    sums = np.zeros(2)  # squared Frobenius norms of the residual and of L^(-1)
    for start in range(0, N, block):
        x = np.eye(min(block, N - start), N, start)  # unit fields start, start + 1, ...
        full = fracpow.dense_power(x, V, -1.0)
        for _ in range(2):  # one block held at a time besides full
            x = fracpow.dense_power(x, V, -0.5)
        x -= full
        sums += np.vdot(x, x), np.vdot(full, full)
    err = float(np.sqrt(sums[0] / sums[1]))
    tol = 1e-10
    verdict = "pass" if err <= tol else "fail"
    return CheckReport("COMPOSITION", _cfg_note(cfg), {"rel_frobenius_err": err},
                       "composition_residual", 0.0, err, tol, verdict)


def check_green_mass(cfg: RunConfig) -> CheckReport:
    """Green mass at most 1: constant-V equality plus random potentials."""
    rng = rng_for(cfg.seed, "GREEN_MASS")
    grid = cfg.grid()
    const, samples = potentials.const(2.0), 50
    V = potentials.discretize_potential(const, grid)
    mass_const = fracpow.green_mass_all(V)
    const_dev = float(np.max(np.abs(mass_const - 1.0)))
    worst = -math.inf
    for _ in range(samples):
        vals = rng.uniform(0.0, 5.0, grid.shape)
        Vr = Field(grid, vals)
        masses = fracpow.green_mass_all(Vr)
        ys = rng.integers(0, grid.num_points, size=5)
        worst = max(worst, float(np.max(masses[ys])))
    ok = const_dev <= 1e-10 and worst <= 1.0 + 1e-8
    note = _cfg_note(cfg, catalog=[const.label(), f"{samples} uniform(0, 5) samples"])
    return CheckReport("GREEN_MASS", note,
                       {"const_equality_dev": const_dev, "random_max_mass": worst},
                       "green_mass", 1.0, worst, 1e-8, "pass" if ok else "fail")


def _factor_ratios(grid: GridSpec, catalog, draw, ps) -> dict:
    """Largest ||A f||_p / ||f||_p per (V label, p), A = sqrt(-Delta) L^(-1/2) from dense.

    ``draw(pot)`` gives V's trial stack.  Every p goes through one formula,
    (|x|^p).sum() ** (1/p): numpy's scalar-power fast paths make p = 2 the
    l2 norm and p = 1 the absolute sum, bit for bit.
    """
    out = {}
    for pot in catalog:
        stack = draw(pot)
        V = potentials.discretize_potential(pot, grid)
        Af = riesz.factor_from_inv_sqrt(fracpow.dense_power(stack, V, -0.5), grid)
        num, den = (np.abs(x.reshape(len(x), -1)) for x in (Af, stack))
        for p in ps:
            top, bottom = ((x**p).sum(axis=1) ** (1 / p) for x in (num, den))
            out[pot.label(), p] = float((top / bottom).max())
    return out


def check_l2_contract(cfg: RunConfig) -> CheckReport:
    """L2 ratio of the half-power factor at most 1 for every catalog V."""
    rng = rng_for(cfg.seed, "L2_CONTRACT")
    grid, catalog = cfg.grid(), potentials.standard_catalog(cfg.d)
    stack = trial_family(grid, rng, cfg.trials, mean_zero=True, structured=False)
    ratios = _factor_ratios(grid, catalog, lambda pot: stack, (2.0,))
    per = {v: r for (v, _), r in ratios.items()}
    worst = max(per.values())
    verdict = "pass" if worst <= 1.0 + DENSE_TOL else "fail"
    note = _cfg_note(cfg, catalog=[pot.label() for pot in catalog])
    return CheckReport("L2_CONTRACT", note, per, "l2_ratio", 1.0, worst, DENSE_TOL, verdict)


def _catalog_draw(cfg: RunConfig, check_id: str):
    """The per-V draw of L1_BOUND and INTERP: a fresh trial family, mean-zero for V = 0."""
    rng, grid = rng_for(cfg.seed, check_id), cfg.grid()
    return lambda pot: trial_family(grid, rng, cfg.trials, mean_zero=pot.tag == "zero")


def check_l1_bound(cfg: RunConfig) -> CheckReport:
    """Per-function L1 ratio of the half-power factor at most 2."""
    grid, catalog = cfg.grid(), potentials.standard_catalog(cfg.d)
    ratios = _factor_ratios(grid, catalog, _catalog_draw(cfg, "L1_BOUND"), (1.0,))
    per = {v: r for (v, _), r in ratios.items()}
    worst = max(per.values())
    verdict = "pass" if worst <= 2.0 * (1.0 + DENSE_TOL) else "fail"
    note = _cfg_note(cfg, catalog=[pot.label() for pot in catalog])
    return CheckReport("L1_BOUND", note, per, "l1_ratio", 2.0, worst, DENSE_TOL, verdict)


def check_w_kernel(cfg: RunConfig) -> CheckReport:
    """Perturbation kernel: nonnegative entries, column mass at most 2 sqrt(pi).

    Runs with a resolution floor of n = 32: on coarser d = 2 grids the
    far-field ringing of the discrete half-power kernels swamps the sign
    structure of W (the column-mass identity holds at any resolution).

    On the torus the column mass is 2 sqrt(pi) for every nonzero V, not
    only at most that: sqrt(-Delta) is symmetric and kills the constants,
    so 1^T (I + c2 W) = 1^T sqrt(-Delta) L^(-1/2) = 0 and every column of W
    sums to -1/c2.  The mass gate therefore tests rounding only, and the
    sign gate carries the check.
    """
    grid = cfg.grid(n=max(cfg.n, 32))
    mass_bound = 2.0 * math.sqrt(math.pi)
    worst_neg = 0.0
    worst_mass = -math.inf
    per = {}
    catalog = potentials.standard_catalog(grid.d, include_zero=False)
    for pot in catalog:
        V = potentials.discretize_potential(pot, grid)
        W = fracpow.perturbation_kernel(V)
        neg = W.min_entry / W.max_abs_entry
        per[f"{pot.label()}_min_rel"] = float(neg)
        per[f"{pot.label()}_colmass"] = W.max_column_mass
        worst_neg = min(worst_neg, neg)
        worst_mass = max(worst_mass, W.max_column_mass)
    ok = worst_neg >= -1e-8 and worst_mass <= mass_bound + 1e-6
    note = _cfg_note(cfg, n=grid.n, catalog=[pot.label() for pot in catalog])
    return CheckReport("W_KERNEL", note, per, "column_mass",
                       mass_bound, worst_mass, 1e-6, "pass" if ok else "fail")


def check_interp(cfg: RunConfig) -> CheckReport:
    """Interpolated per-function p-norm ratios for the half-power factor."""
    grid, catalog = cfg.grid(), potentials.standard_catalog(cfg.d)
    ps = sorted(set([1.0, *cfg.p_list]))
    ratios = _factor_ratios(grid, catalog, _catalog_draw(cfg, "INTERP"), ps)
    # the first (V, p) of the largest ratio / bound
    label, p = max(ratios, key=lambda k: ratios[k] / _interp_bound(k[1]))
    ratio, bound = ratios[label, p], _interp_bound(p)
    verdict = "pass" if ratio / bound <= 1.0 + QUAD_TOL else "fail"
    per = {f"{v}_p{q:g}": r for (v, q), r in ratios.items()}
    note = _cfg_note(cfg, p_values=ps, worst=f"{label}@p={p:g}",
                     catalog=[pot.label() for pot in catalog])
    return CheckReport("INTERP", note, per, "interp_ratio", bound, ratio, QUAD_TOL, verdict)


# THEOREM reduces the Riesz vectors of this many fields to numbers before
# it forms the next block's, so its memory does not grow with theorem_trials:
# the whole d = 3 stack as one block peaked at 120 MB, blocks of 16 at 88 MB.
THEOREM_BLOCK = 4
QUAD_FIELDS = 3  # THEOREM's quadrature cross-check runs on the first fields


def check_theorem(cfg: RunConfig) -> CheckReport:
    """Per-function chain for the vector transform bound across d = 1, 2, 3.

    (i) factor-norm ratios within the interpolation bound; (ii) direct and
    factored routes identical on the dense backend, and the quadrature
    backend within its tolerance of dense; (iii) vector-magnitude p-norms
    within the interpolation bound times the empirical classical constant;
    (iv) one constant works for every dimension.
    """
    rng = rng_for(cfg.seed, "THEOREM")
    pot = parse_potential(cfg.potential)
    dims = (1, 2, 3)
    ps = tuple(cfg.p_list)

    classical_max = {p: -math.inf for p in ps}
    vector_max = {d: {p: -math.inf for p in ps} for d in dims}
    route_err = quad_route_err = quad_split_est = worst_factor = -math.inf
    trials_by_d = {}
    for d in dims:
        grid = cfg.grid(d=d)
        V = potentials.discretize_potential(pot, grid)
        stack = trial_family(grid, rng, cfg.theorem_trials, mean_zero=True)
        trials_by_d[d] = len(stack)
        halves = fracpow.dense_power(stack, V, -0.5)
        for start in range(0, len(stack), THEOREM_BLOCK):
            block, half = (x[start:start + THEOREM_BLOCK] for x in (stack, halves))
            res = riesz.riesz_from_inv_sqrt(half, grid, route="factored")
            direct = riesz.riesz_from_inv_sqrt(half, grid, route="direct")
            diff = _field_max(res.components - direct.components)
            route_err = max(route_err, float((diff / _field_max(res.components)).max()))
            # classical constants and the chain inequalities
            cls = riesz.classical_riesz(block, grid)
            for p in ps:
                bottom = lp_denominators(block, grid, p)
                cls_top, factor_top, vector_top = (
                    float((lp_norms(x, grid, p) / bottom).max())
                    for x in (cls.magnitude, res.companion, res.magnitude)
                )
                classical_max[p] = max(classical_max[p], cls_top)
                worst_factor = max(worst_factor, factor_top / _interp_bound(p))
                vector_max[d][p] = max(vector_max[d][p], vector_top)
        # quadrature backend cross-check on a small subset: the dense
        # reference, the quadrature result and its splitting estimate go
        # through the same Riesz map
        qhalves, qests = fracpow.subordinated_apply_stack(
            stack[:QUAD_FIELDS], V, -0.5, tol=cfg.quad_tol, tau0=cfg.tau0
        )
        ref, qcomps, ecomps = (
            riesz.riesz_from_inv_sqrt(x, grid, route="factored").components
            for x in (halves[:QUAD_FIELDS], qhalves, qests)
        )
        den = _components_l2(ref)
        quad_route_err = max(quad_route_err, float((_components_l2(qcomps - ref) / den).max()))
        quad_split_est = max(quad_split_est, float((_components_l2(ecomps) / den).max()))

    c_hat = {p: 1.05 * classical_max[p] for p in ps}
    margin_by_d = {
        d: max(vector_max[d][p] / (_interp_bound(p) * c_hat[p]) for p in ps) for d in dims
    }
    worst_vector_margin = max(margin_by_d.values())

    measured = {
        "route_rel_err_dense": route_err,
        "route_rel_err_quad": quad_route_err,
        # splitting-error estimate of the fine sum before extrapolation,
        # carried through the same Riesz map and norm; not gated
        "route_rel_fine_splitting_est_quad": quad_split_est,
        "factor_margin": worst_factor,
        "vector_margin": worst_vector_margin,
        # recorded per dimension: any d-dependence of the measured ratios
        # is data, not an assertion
        **{f"vector_margin_d{d}": margin_by_d[d] for d in dims},
        **{f"c_hat_p{p:g}": c_hat[p] for p in ps},
    }
    ok = (
        route_err <= 1e-10
        and quad_route_err <= QUAD_TOL
        and worst_factor <= 1.0 + QUAD_TOL
        and worst_vector_margin <= 1.0 + QUAD_TOL
    )
    note = _cfg_note(cfg, dims=list(dims), p_values=list(ps))
    if any(k != cfg.theorem_trials for k in trials_by_d.values()):
        # coarse grids drop degenerate structured fields; say how many ran
        note["trials_by_d"] = trials_by_d
    return CheckReport("THEOREM", note, measured,
                       "vector_margin", 1.0, worst_vector_margin, QUAD_TOL,
                       "pass" if ok else "fail")


def check_weak11(cfg: RunConfig) -> CheckReport:
    """Weak-(1,1) functional of the first component stays stable as n doubles.

    Near-deltas sit at generic (non-symmetric) coarse-grid points: at a
    symmetry center of box and potential the level sets quantize in
    mirror pairs and the functional converges an order slower.
    """
    pot = parse_potential(cfg.potential)
    d = min(cfg.d, 2)
    widths = (1.0, 1.25, 1.5)
    centers = [np.resize([-1.0, 0.5], d), np.resize([0.5, -1.5], d), np.resize([1.5, 1.0], d)]
    ratios = {}
    for n in (cfg.n, 2 * cfg.n):
        grid = GridSpec(d, n, cfg.R)
        V = potentials.discretize_potential(pot, grid)
        pts = np.stack(grid.mesh(), axis=-1)
        vals = []
        for sig in widths:
            for c in centers:
                v = np.exp(-(((pts - c) ** 2).sum(axis=-1)) / (2 * sig**2))
                f = Field(grid, v)
                res = riesz.schrodinger_riesz(f, V, route="factored")
                vals.append(weak_l1(Field(grid, res.components[0, 0])) / lp_norm(f, 1.0))
        ratios[n] = vals
    rel = [
        abs(a / b - 1.0) for a, b in zip(ratios[2 * cfg.n], ratios[cfg.n])
    ]
    worst = float(max(rel))
    verdict = "pass" if worst <= 0.10 else "fail"
    return CheckReport("WEAK11", _cfg_note(cfg, widths=widths, d=d),
                       {f"width_case_{i}": r for i, r in enumerate(rel)},
                       "refinement_change", 0.0, worst, 0.10, verdict)


def check_vhalf(cfg: RunConfig) -> CheckReport:
    """p-norm ratios of the sqrt(V)-weighted inverse root across dimensions.

    The p = 2 ratio is asserted at most 1; smaller p are informational
    (no numeric bound is derived here) and recorded in the report.
    """
    rng = rng_for(cfg.seed, "VHALF")
    pot = parse_potential(cfg.potential)
    dims, ps = (1, 2, 3), (1.25, 1.5, 2.0)
    worst_p2 = -math.inf
    per = {}
    for d in dims:
        grid = cfg.grid(d=d)
        V = potentials.discretize_potential(pot, grid)
        stack = trial_family(grid, rng, 24, mean_zero=True)
        outs = riesz.sqrt_potential_inv_sqrt(stack, V)
        for p in ps:
            per[f"d{d}_p{p:g}"] = float(lp_ratios(outs, stack, grid, p).max())
            if p == 2.0:
                worst_p2 = max(worst_p2, per[f"d{d}_p{p:g}"])
    verdict = "pass" if worst_p2 <= 1.0 + DENSE_TOL else "fail"
    return CheckReport("VHALF", _cfg_note(cfg, dims=list(dims), p_values=list(ps)), per,
                       "p2_ratio", 1.0, worst_p2, DENSE_TOL, verdict)


def check_ce1(cfg: RunConfig) -> CheckReport:
    """Counterexample-1 lattice: slopes, control case, series residual."""
    lattice = [(0.1, 3.0), (0.25, 4.0), (0.4, 8.0)]
    measured = {}
    worst_dev = -math.inf
    ok = True
    # one walk of the section serves the lattice and the control (0.8, 4)
    *reps, control = counterexamples.ce1_scan(*zip(*lattice, (0.8, 4.0)))
    for (eps, p), rep in zip(lattice, reps):
        dev = abs(rep.fit_slope - rep.expected_slope)
        measured[f"slope_eps{eps:g}_p{p:g}"] = rep.fit_slope
        measured[f"dev_eps{eps:g}_p{p:g}"] = dev
        worst_dev = max(worst_dev, dev)
        ok &= rep.verdict == "pass"
    measured["control_slope"] = control.fit_slope
    ok &= control.fit_slope >= -0.02
    residual_grid = GridSpec(3, 32, 2.5)
    res = counterexamples.ce1_residual(residual_grid, 0.25)
    measured["series_residual"] = res["relative"]
    measured["v_min"] = res["v_min"]
    ok &= res["relative"] <= 1e-3 and res["v_min"] >= 1.0
    verdict = "pass" if ok else "fail"
    note = _cfg_note(cfg, lattice=lattice, section=asdict(control.extras["section"]),
                     deltas=control.xs.tolist(), residual_grid=asdict(residual_grid))
    return CheckReport("CE1", note, measured, "slope_deviation", 0.0, worst_dev,
                       counterexamples.CE1_SLOPE_TOL, verdict)


def check_ce2(cfg: RunConfig) -> CheckReport:
    """Counterexample-2: log mass growth plus the kernel-envelope spot check."""
    rep = counterexamples.ce2_scan(4.0)
    measured = {"mass_fit_r2": rep.fit_r2}
    ok = rep.verdict == "pass"

    lb = counterexamples.ce2_lower_bound_field(GridSpec(3, 12, 1.5), 4.0)
    pts = np.stack(lb.spec.mesh(), axis=-1)
    outside = (pts**2).sum(axis=-1) >= 1.0
    measured["lower_bound_min"] = float(lb.values.min())
    measured["outside_ball_max"] = float(np.abs(lb.values[outside]).max())
    ok &= lb.values.min() >= 0.0 and measured["outside_ball_max"] == 0.0

    env = gaussian_envelope_spotcheck(t=0.25)
    measured.update(env)
    ok &= env["upper_excess_local"] <= 2e-3 and env["fitted_c"] > 0.0
    verdict = "pass" if ok else "fail"
    return CheckReport("CE2", _cfg_note(cfg), measured, "mass_fit_r2",
                       counterexamples.CE2_R2_THRESHOLD, rep.fit_r2, 0.0, verdict)


def gaussian_envelope_spotcheck(
    t: float = 0.25,
    n: int = 12,
    R: float = 2.5,
    region_fraction: float = 0.6,
) -> dict:
    """Dense kernel of the capped slab potential against Gaussian envelopes.

    Checks c * h_{ct}(x - y) <= k_t(x, y) <= h_t(x - y) on separations up
    to region_fraction * R per axis (beyond that the torus images make the
    free-space comparison meaningless).  Returns the fitted (c, ct).

    The upper envelope is a discrete-vs-continuum comparison: sampling the
    ball indicator at spacing h perturbs the operator at O(h), so the
    pointwise excess carries a floor around 1e-4 of the local kernel at
    this resolution.  The reported excess is relative to the local value.
    The kernel is read at one column per reflection orbit
    (:func:`semigroup.orbit_columns`), 343 of 1,728 at n = 12.
    """
    grid = GridSpec(3, n, R)
    V = potentials.discretize_potential(potentials.ce2(4.0), grid)
    op = semigroup.dense_schrodinger(V)

    def h_free(tt: float, dist2: np.ndarray) -> np.ndarray:
        return (4.0 * math.pi * tt) ** (-grid.d / 2.0) * np.exp(-dist2 / (4.0 * tt))

    # Separation, region and envelopes depend only on the per-axis offset
    # q = (i - j) mod n: form them once per q, at the separation h*q with q
    # folded into [-n/2, n/2), which rolling the axis by n/2 lists exactly.
    # The region is a box, so its offsets are one set per axis, closed under
    # q -> -q mod n.  The ratios are monotone in k, so each q's extreme k
    # gives its extremes.  Row i of the symmetric k_t is its column i, read
    # a block at a time at semigroup.orbit_columns.  V is even, so row Ri
    # holds at offset q what row i holds at q with q_a -> -q_a on each axis
    # a that R reflects.  The separation is the same at q and at -q, and the
    # box holds both, so the extremes over the box need no fold over flips.
    sep = np.roll(grid.axis(), grid.n // 2)
    offs = np.flatnonzero(np.abs(sep) <= region_fraction * grid.R)
    delta = np.stack(np.meshgrid(*[sep[offs]] * grid.d, indexing="ij"), axis=-1)
    dist2 = (delta.reshape(-1, grid.d) ** 2).sum(axis=-1)
    k_lo, k_hi = np.full(delta.shape[:-1], np.inf), np.full(delta.shape[:-1], -np.inf)
    cols = semigroup.orbit_columns(V)[0]
    for start in range(0, len(cols), semigroup.COLUMN_BLOCK):
        block = cols[start : start + semigroup.COLUMN_BLOCK]
        kt = semigroup.matrix_function(op, lambda lam: np.exp(-t * lam), cols=block)
        at = (np.arange(len(block)).reshape(-1, *(1,) * grid.d),
              *semigroup._offset_index(grid, block, offs))
        k = kt.T.reshape(len(block), *grid.shape)[at]
        k_lo, k_hi = np.minimum(k_lo, k.min(axis=0)), np.maximum(k_hi, k.max(axis=0))
    k_lo, k_hi = k_lo.ravel() / grid.cell_volume, k_hi.ravel() / grid.cell_volume
    ht = h_free(t, dist2)
    upper_local = float(np.max((k_hi - ht) / ht))
    mults = (1.0, 1.25, 1.5, 2.0, 3.0)
    ratio_min = [float((k_lo / h_free(mult * t, dist2)).min()) for mult in mults]
    best_c, best_ct = 0.0, t
    for mult, rmin in zip(mults, ratio_min):
        c = min(1.0, rmin)
        if c > best_c:
            best_c, best_ct = c, mult * t
    return {
        "upper_excess_local": upper_local,
        "fitted_c": best_c,
        "fitted_ct_over_t": best_ct / t,
        "kernel_min_in_region": float(k_lo.min()),
    }


def check_ce3(cfg: RunConfig) -> CheckReport:
    """Counterexample-3: ln ln tail growth and Green-bound stability."""
    rep = counterexamples.ce3_scan()
    measured = {
        f"increment_rel_{i}": float(v)
        for i, v in enumerate(rep.extras["increment_rel_err"])
    }
    ok = rep.verdict == "pass"
    gb1 = counterexamples.green_bounded_check(potentials.ce3(), 3, radius_cap=1e3)
    gb2 = counterexamples.green_bounded_check(potentials.ce3(), 3, radius_cap=2e3)
    stab = abs(gb2.sup_estimate - gb1.sup_estimate) / gb1.sup_estimate
    measured["green_sup_estimate"] = gb1.sup_estimate
    measured["green_stability"] = stab
    measured["green_divergent"] = float(gb1.divergent)
    ok &= stab < 0.02 and not gb1.divergent
    verdict = "pass" if ok else "fail"
    worst = float(max(rep.extras["increment_rel_err"]))
    return CheckReport("CE3", _cfg_note(cfg), measured, "increment_rel_err", 0.0, worst,
                       counterexamples.CE3_REL_TOL, verdict)


FK_TRIPLES = ((0.0, 0.0, 0.25), (0.5, -0.25, 0.4), (1.0, 1.0, 0.1))


def check_fk_oracle(cfg: RunConfig) -> CheckReport:
    """Feynman-Kac estimates within 3 standard errors of the dense kernel.

    Each entry reports |estimate - dense| and, as ``<entry>_stderr``, the
    estimate's standard error.
    """
    grid = GridSpec(1, 64, cfg.R)
    pots = (potentials.zero(), potentials.const(2.0), potentials.harmonic())
    table = semigroup.fk_kernel_estimate(pots, *zip(*FK_TRIPLES), cfg.fk_paths, cfg.seed,
                                         slices=cfg.fk_slices)
    measured = {}
    ok = True
    worst_sigma = -math.inf
    for pot, row in zip(pots, table.tolist()):
        V = potentials.discretize_potential(pot, grid)
        op = semigroup.dense_schrodinger(V)
        for (x, y, t), (est, err) in zip(FK_TRIPLES, row):
            ix = grid.flat_index(grid.nearest_index([x]))
            iy = grid.flat_index(grid.nearest_index([y]))
            col = semigroup.matrix_function(op, lambda lam: np.exp(-t * lam), cols=iy)
            dense_val = col[ix, 0] / grid.cell_volume
            # stderr 0 for path-independent weights: allow discretization floor
            slack = max(3.0 * err, 1e-6 * max(abs(dense_val), abs(est)))
            sig = abs(est - dense_val) / (slack / 3.0) if slack else 0.0
            key = f"{pot.label()}_x{x:g}_y{y:g}_t{t:g}"
            measured[key] = float(abs(est - dense_val))
            measured[f"{key}_stderr"] = float(err)
            worst_sigma = max(worst_sigma, sig)
            ok &= abs(est - dense_val) <= slack
    verdict = "pass" if ok else "fail"
    note = _cfg_note(cfg, triples=FK_TRIPLES, dims=[grid.d], ns=[grid.n],
                     catalog=[pot.label() for pot in pots])
    return CheckReport("FK_ORACLE", note, measured, "sigma_distance", 3.0, worst_sigma, 0.0,
                       verdict)


QUAD_GRIDS = ((1, 32), (2, 16))


def check_quad_vs_dense(cfg: RunConfig) -> CheckReport:
    """Quadrature fractional powers, one walk for all three, against dense."""
    rng = rng_for(cfg.seed, "QUAD_VS_DENSE")
    worst = -math.inf
    per = {}
    ran = {}
    for d, n in QUAD_GRIDS:
        grid = GridSpec(d, n, cfg.R)
        stack = trial_family(grid, rng, 8, mean_zero=True, structured=False)
        for pot in potentials.standard_catalog(d):
            ran[pot.label()] = None
            V = potentials.discretize_potential(pot, grid)
            gots, ests = fracpow.subordinated_apply_stack(
                stack, V, fracpow.POWERS, tol=cfg.quad_tol, tau0=cfg.tau0
            )
            for power, got, est in zip(fracpow.POWERS, gots, ests):
                ref = fracpow.dense_power(stack, V, power)
                key = f"d{d}_{pot.label()}_pow{power:g}"
                den = l2_norms(ref, grid)
                per[key] = float(np.max(l2_norms(got - ref, grid) / den))
                # splitting-error estimate of the fine sum before
                # extrapolation, next to the measured error; not gated
                per[f"{key}_fine_splitting_est"] = float(np.max(l2_norms(est, grid) / den))
                worst = max(worst, per[key])
    verdict = "pass" if worst <= 1e-4 else "fail"
    note = _cfg_note(cfg, dims=[d for d, _ in QUAD_GRIDS], ns=[n for _, n in QUAD_GRIDS],
                     catalog=list(ran))
    return CheckReport("QUAD_VS_DENSE", note, per, "rel_l2_err", 0.0, worst, 1e-4, verdict)


CHECKS = {
    "DOMINATION": check_domination,
    "COMPOSITION": check_composition,
    "GREEN_MASS": check_green_mass,
    "L2_CONTRACT": check_l2_contract,
    "L1_BOUND": check_l1_bound,
    "W_KERNEL": check_w_kernel,
    "INTERP": check_interp,
    "THEOREM": check_theorem,
    "WEAK11": check_weak11,
    "VHALF": check_vhalf,
    "CE1": check_ce1,
    "CE2": check_ce2,
    "CE3": check_ce3,
    "FK_ORACLE": check_fk_oracle,
    "QUAD_VS_DENSE": check_quad_vs_dense,
}


def run_check(check_id: str, cfg: RunConfig | None = None) -> CheckReport:
    if check_id not in CHECKS:
        raise ValueError(f"unknown check {check_id!r}; know {sorted(CHECKS)}")
    t0 = time.perf_counter()
    report = CHECKS[check_id](cfg or RunConfig())
    report.runtime_s = time.perf_counter() - t0
    return report


def run_suite(suite: str, cfg: RunConfig | None = None) -> list[CheckReport]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; know {sorted(SUITES)}")
    cfg = cfg or RunConfig()
    return [run_check(cid, cfg) for cid in SUITES[suite]]
