"""What one pass of each workload runs.

Every pass is closed loop and cold start: it runs in a fresh interpreter,
with one caller except in ``core-2way``, and calls the same entry points as
``rzlab verify`` (``verify.run_suite`` / ``verify.run_check`` and
``cli.write_reports``).  The only input is ``RunConfig(seed=seed)``; every
other field keeps its default.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ThreadPoolExecutor

CORE = (
    "DOMINATION", "COMPOSITION", "GREEN_MASS", "L2_CONTRACT", "L1_BOUND",
    "W_KERNEL", "INTERP", "THEOREM", "WEAK11", "VHALF",
)

# Check ids per workload, used to count a pass whose process died.
EXPECTED = {
    "oracles": ("FK_ORACLE", "QUAD_VS_DENSE"),
    "core-ce": CORE + ("CE1", "CE2", "CE3"),
    "core-2way": CORE,
}

# QUAD_VS_DENSE takes 80-90 s at its default config, too long for a run.
# The oracles pass keeps these catalog potentials: about 8 s, 21 of the 33
# subordinated applies.  ce2 at d = 1 (lambda_min 0.14, 17k Strang steps per
# apply) sets the check's worst error, 2.7e-5 against the 1e-4 gate, as in
# the full catalog; ce1 and ce3, and ce2 at d = 2, are left out.
ORACLE_CATALOG = {1: ("zero", "const", "harmonic", "ce2"), 2: ("zero", "const", "harmonic")}


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def _oracle_catalog(potentials):
    """Restrict the standard catalog to ORACLE_CATALOG while the pass runs.

    Yields a list that records the dimensions the catalog was asked for, so
    the pass can say whether the restriction took effect.
    """
    full = potentials.standard_catalog
    asked: list[int] = []

    def catalog(d, *args, **kwargs):
        asked.append(d)
        keep = ORACLE_CATALOG.get(d, ())
        return [p for p in full(d, *args, **kwargs) if p.tag in keep]

    potentials.standard_catalog = catalog
    try:
        yield asked
    finally:
        potentials.standard_catalog = full


def _suite(verify, name: str, cfg) -> list[tuple]:
    ids = verify.SUITES[name]
    try:
        reports = verify.run_suite(name, cfg)
    except Exception as exc:  # a raising check fails every check of its suite
        return [(cid, None, _describe(exc)) for cid in ids]
    return [(r.check_id, r, None) for r in reports]


def _two_callers(verify, cfg) -> list[tuple]:
    """The ten core checks mapped over a two-thread pool, as jobs = 2 does."""
    with ThreadPoolExecutor(max_workers=2) as ex:
        futures = [(cid, ex.submit(verify.run_check, cid, cfg)) for cid in verify.CORE_CHECKS]
        out = []
        for cid, fut in futures:
            try:
                out.append((cid, fut.result(), None))
            except Exception as exc:
                out.append((cid, None, _describe(exc)))
    return out


def run(workload: str, cfg, verify, potentials, notes: list[str]) -> list[tuple]:
    """Run one pass; returns (check_id, report or None, error or None) per check."""
    if workload == "oracles":
        with _oracle_catalog(potentials) as asked:
            out = _suite(verify, "oracles", cfg)
        if not asked:
            notes.append("QUAD_VS_DENSE did not ask potentials.standard_catalog; "
                         "its catalog ran unrestricted")
        return out
    if workload == "core-ce":
        return _suite(verify, "core", cfg) + _suite(verify, "counterexamples", cfg)
    if workload == "core-2way":
        return _two_callers(verify, cfg)
    raise ValueError(f"unknown workload {workload!r}")
