"""Per-layer tracer that wraps rzlab's public functions from outside the package.

Each listed function is replaced, in every module namespace that binds it,
by a wrapper that records its calls, total time and self time.  Self time is
total time minus the time spent in wrapped children on the same thread; each
thread keeps its own span stack, so two callers in flight do not steal each
other's time.  ``numpy.linalg.eigh`` is wrapped as a counter (calls and
seconds by matrix order), not as a span, so factorization time stays in the
self time of the function that asked for it.

A listed function that no longer exists is reported as missing instead of
failing, so a change that deletes one can still be measured.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

# layer (module of the rzlab package) -> functions recorded as spans
SPANS = {
    "spectral": ("apply_symbol_stack", "apply_multiplier"),
    "semigroup": (
        "evolve_stack",
        "dense_schrodinger",
        "matrix_function",
        "multiplier_matrix",
        "fk_kernel_estimate",
    ),
    "fracpow": (
        "subordinated_apply_stack",
        "dense_power",
        "perturbation_kernel",
        "green_mass_all",
        "build_quadrature",
    ),
    "riesz": ("schrodinger_riesz", "sqrt_potential_inv_sqrt"),
    "grid": ("lp_norm", "weak_l1"),
    "counterexamples": ("ce1_scan", "ce2_scan", "ce3_scan", "green_bounded_check"),
    "potentials": ("discretize_potential",),
    "verify": ("run_check",),
    "cli": ("write_reports",),
}

CHECK_IDS = (
    "DOMINATION", "COMPOSITION", "GREEN_MASS", "L2_CONTRACT", "L1_BOUND",
    "W_KERNEL", "INTERP", "THEOREM", "WEAK11", "VHALF",
    "CE1", "CE2", "CE3", "FK_ORACLE", "QUAD_VS_DENSE",
)

POWER_LABELS = {-0.5: "pow-0.5", -1.0: "pow-1", 0.5: "pow0.5"}

# eigh matrix orders: d <= 2 oracles, d = 2 at n = 32 and d = 3 at n = 12, d = 3 at n = 16
EIGH_BUCKETS = ((512, "le512"), (2048, "le2048"), (None, "gt2048"))

SUBORDINATION = "fracpow.subordinated_apply_stack"
DENSE = "semigroup.dense_schrodinger"

# derived metric -> the spans it is computed from; missing only if all are
DERIVED = {
    "spectral.fft_points": ("spectral.apply_symbol_stack", "spectral.apply_multiplier"),
    "semigroup.strang_steps": ("semigroup.evolve_stack",),
    "semigroup.dense_cache_hit_ratio": (DENSE,),
    "semigroup.dense_schrodinger.concurrent_s": (DENSE,),
    "fracpow.strang_steps_per_apply": (SUBORDINATION, "semigroup.evolve_stack"),
    "fracpow.quad_rel_err_max": ("verify.run_check",),
    **{f"{SUBORDINATION}.total_s.{lbl}": (SUBORDINATION,) for lbl in POWER_LABELS.values()},
    **{f"verify.run_check.{cid}.s": ("verify.run_check",) for cid in CHECK_IDS},
}
EIGH_METRICS = (
    "semigroup.eigh_calls",
    "semigroup.eigh_s",
    *(f"semigroup.eigh_s.{lbl}" for _, lbl in EIGH_BUCKETS),
)


def metric_names(spans=SPANS) -> list[str]:
    """Every metric name a tracer over ``spans`` reports."""
    names = [
        f"{layer}.{fn}.{stat}"
        for layer, fns in spans.items()
        for fn in fns
        for stat in ("calls", "total_s", "self_s")
    ]
    return names + list(DERIVED) + list(EIGH_METRICS)


def _bound_arg(sig, name, args, kwargs):
    if sig is None:
        return None
    try:
        return sig.bind_partial(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


class Tracer:
    """Span and counter recorder for one traced pass."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.missing: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self._counters = defaultdict(float)
        self._check_s = defaultdict(float)
        self._check_measured: dict[str, float] = {}
        self._dense_active = 0
        self._dense_since = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self, modules: dict, namespaces, linalg=None) -> None:
        """Wrap ``spans`` found in ``modules`` (layer -> module or None).

        Every object in ``namespaces`` that binds an original function gets
        the wrapper under the same attribute name.  ``linalg`` is the module
        whose ``eigh`` is counted.
        """
        for layer, fns in self.spans.items():
            mod = modules.get(layer)
            for fn in fns:
                key = f"{layer}.{fn}"
                orig = getattr(mod, fn, None) if mod is not None else None
                if not callable(orig):
                    self.missing.add(key)
                    continue
                wrapper = self._wrap(key, orig)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, attr, wrapper)
                            self._restore.append((ns, attr, orig))
        if linalg is not None:
            orig_eigh = linalg.eigh
            linalg.eigh = self._wrap_eigh(orig_eigh)
            self._restore.append((linalg, "eigh", orig_eigh))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._restore):
            setattr(ns, attr, orig)
        self._restore.clear()

    # -- wrappers --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, orig):
        try:
            sig = inspect.signature(orig)
        except (TypeError, ValueError):
            sig = None
        before = self._before_hook(key, sig)
        after = self._after_hook(key, sig)
        stats = self._stats[key]
        lock = self._lock

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [key, 0.0]  # span name, time in wrapped children
            if before:
                before(args, kwargs, stack)
            stack.append(frame)
            result = None
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with lock:
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += dt - frame[1]
                if after:
                    after(args, kwargs, dt, result)

        return wrapper

    def _add(self, name: str, value: float) -> None:
        with self._lock:
            self._counters[name] += value

    def _before_hook(self, key, sig):
        if key == "spectral.apply_symbol_stack":
            def hook(args, kwargs, stack):
                x = args[0] if args else _bound_arg(sig, "stack", args, kwargs)
                self._add("spectral.fft_points", getattr(x, "size", 0))
            return hook
        if key == "spectral.apply_multiplier":
            def hook(args, kwargs, stack):
                f = args[0] if args else _bound_arg(sig, "f", args, kwargs)
                self._add("spectral.fft_points", getattr(getattr(f, "values", None), "size", 0))
            return hook
        if key == "semigroup.evolve_stack":
            def hook(args, kwargs, stack):
                steps = _bound_arg(sig, "steps", args, kwargs) or 0
                self._add("semigroup.strang_steps", steps)
                if any(frame[0] == SUBORDINATION for frame in stack):
                    self._add("fracpow.subordinated_strang_steps", steps)
            return hook
        if key == DENSE:
            def hook(args, kwargs, stack):
                with self._lock:
                    self._dense_active += 1
                    if self._dense_active == 2:
                        self._dense_since = time.perf_counter()
            return hook
        return None

    def _after_hook(self, key, sig):
        # ``result`` is None when the call raised.
        if key == SUBORDINATION:
            def hook(args, kwargs, dt, result):
                label = POWER_LABELS.get(_bound_arg(sig, "power", args, kwargs))
                if label:
                    self._add(f"{SUBORDINATION}.total_s.{label}", dt)
            return hook
        if key == DENSE:
            def hook(args, kwargs, dt, result):
                with self._lock:
                    if self._dense_active == 2:
                        self._counters[f"{DENSE}.concurrent_s"] += (
                            time.perf_counter() - self._dense_since
                        )
                    self._dense_active -= 1
            return hook
        if key == "verify.run_check":
            def hook(args, kwargs, dt, result):
                cid = str(args[0] if args else _bound_arg(sig, "check_id", args, kwargs))
                with self._lock:
                    self._check_s[cid] += dt
                    value = getattr(result, "measured_value", None)
                    if cid == "QUAD_VS_DENSE" and value is not None:
                        self._check_measured[cid] = float(value)
            return hook
        return None

    def _wrap_eigh(self, orig):
        @functools.wraps(orig)
        def eigh(a, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(a, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                order = a.shape[-1] if hasattr(a, "shape") else len(a)
                label = next(lbl for cap, lbl in EIGH_BUCKETS if cap is None or order <= cap)
                with self._lock:
                    self._counters["semigroup.eigh_calls"] += 1
                    self._counters["semigroup.eigh_s"] += dt
                    self._counters[f"semigroup.eigh_s.{label}"] += dt

        return eigh

    # -- results ---------------------------------------------------------

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """(metric name -> value, names of metrics whose function is missing)."""
        out: dict[str, float] = {}
        missing: list[str] = []
        for layer, fns in self.spans.items():
            for fn in fns:
                key = f"{layer}.{fn}"
                calls, total, self_s = self._stats.get(key, (0, 0.0, 0.0))
                for stat, value in (("calls", calls), ("total_s", total), ("self_s", self_s)):
                    out[f"{key}.{stat}"] = value
                    if key in self.missing:
                        missing.append(f"{key}.{stat}")
        c = self._counters
        dense_calls = self._stats.get(DENSE, (0,))[0]
        sub_calls = self._stats.get(SUBORDINATION, (0,))[0]
        derived = {
            "spectral.fft_points": c["spectral.fft_points"],
            "semigroup.strang_steps": c["semigroup.strang_steps"],
            "semigroup.dense_cache_hit_ratio": (
                1.0 - c["semigroup.eigh_calls"] / dense_calls if dense_calls else 0.0
            ),
            f"{DENSE}.concurrent_s": c[f"{DENSE}.concurrent_s"],
            "fracpow.strang_steps_per_apply": (
                c["fracpow.subordinated_strang_steps"] / sub_calls if sub_calls else 0.0
            ),
            "fracpow.quad_rel_err_max": self._check_measured.get("QUAD_VS_DENSE", 0.0),
        }
        for lbl in POWER_LABELS.values():
            name = f"{SUBORDINATION}.total_s.{lbl}"
            derived[name] = c[name]
        for cid in CHECK_IDS:
            derived[f"verify.run_check.{cid}.s"] = self._check_s.get(cid, 0.0)
        for name, value in derived.items():
            out[name] = value
            if all(src in self.missing for src in DERIVED[name]):
                missing.append(name)
        for name in EIGH_METRICS:
            out[name] = c[name]
        return out, missing


def install_rzlab(tracer: Tracer) -> None:
    """Install ``tracer`` on the imported rzlab package and numpy.linalg."""
    import importlib

    import numpy

    modules = {}
    for layer in tracer.spans:
        try:
            modules[layer] = importlib.import_module(f"rzlab.{layer}")
        except ImportError:
            modules[layer] = None
    namespaces = [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "rzlab" or name.startswith("rzlab."))
    ]
    tracer.install(modules, namespaces, linalg=numpy.linalg)
