"""rzlab imports only numpy and the standard library.

scipy.special costs more at start-up than all of rzlab's own modules, and
numpy already has what rzlab used it for: the Gauss-Legendre rule of the
radial tail integrals (``leggauss``) and, through ``math``, the gamma
function.  The subordination rule is a trapezoid rule in ln t and needs
neither.

Importing rzlab also pins numpy's BLAS to one thread, unless the caller has
already chosen a thread count.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rzlab
from rzlab import counterexamples

SRC = Path(rzlab.__file__).resolve().parent.parent

COLD_RUN = """
import sys
import rzlab, rzlab.cli
from rzlab import counterexamples, fracpow
fracpow.build_quadrature((-0.5,), (1.0, 1e3))
counterexamples.ce3_tail(1e3)
counterexamples.unit_sphere_area(3)
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
sys.exit(", ".join(loaded) if loaded else 0)
"""


def test_import_and_quadratures_load_no_scipy():
    run = subprocess.run([sys.executable, "-c", COLD_RUN], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("k,ball,sphere", [
    (2, math.pi, 2.0 * math.pi),
    (3, 4.0 * math.pi / 3.0, 4.0 * math.pi),
    (4, math.pi**2 / 2.0, 2.0 * math.pi**2),
])
def test_unit_ball_and_sphere_closed_forms(k, ball, sphere):
    assert counterexamples.unit_ball_volume(k) == pytest.approx(ball, rel=1e-15, abs=0)
    assert counterexamples.unit_sphere_area(k) == pytest.approx(sphere, rel=1e-15, abs=0)


# module -> names of its Gauss-Legendre order and of its (nodes, weights)
GAUSS_RULES = {
    counterexamples: ("_PANEL_ORDER", "_PANEL_RULE"),
}


@pytest.mark.parametrize("module", GAUSS_RULES, ids=lambda m: m.__name__)
def test_module_gauss_rules_integrate_even_monomials_exactly(module):
    order, (nodes, weights) = (getattr(module, name) for name in GAUSS_RULES[module])
    assert len(nodes) == len(weights) == order
    for j in range(order):  # 2j <= 2 * order - 2
        assert weights @ nodes ** (2 * j) == pytest.approx(2.0 / (2 * j + 1), abs=1e-14)


def test_cold_cli_import_loads_no_thread_pool_or_logging():
    # the dense cache waits on a threading.Event, not a concurrent.futures.Future
    probe = ("import sys, rzlab.cli; "
             "sys.exit(', '.join(m for m in ('concurrent.futures', 'logging') if m in sys.modules) or 0)")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert run.returncode == 0, run.stderr


# An importing parent passes OPENBLAS_NUM_THREADS=1 on to its children, so each child
# starts from an environment without any of the three thread variables.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

THREAD_VARS_AFTER_IMPORT = f"""
import json, os
import rzlab
print(json.dumps({{k: os.environ.get(k) for k in {BLAS_THREAD_VARS!r}}}))
"""

W_KERNEL_MEASURED = """
import json
import rzlab
print(json.dumps(rzlab.run_check("W_KERNEL").measured, sort_keys=True, default=float))
"""


def run_child(code, **blas_env):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**env, **blas_env, "PYTHONPATH": str(SRC)}, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.parametrize("blas_env, expected", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}),
    ({"OPENBLAS_NUM_THREADS": "3"}, {"OPENBLAS_NUM_THREADS": "3", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}),
    ({"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}),
], ids=["unset", "openblas-3", "omp-2"])
def test_import_pins_blas_to_one_thread_unless_a_count_is_chosen(blas_env, expected):
    assert run_child(THREAD_VARS_AFTER_IMPORT, **blas_env) == expected


def test_pin_reaches_blas_before_numpy_loads():
    # W_KERNEL's kernel entries move in their last bits with the OpenBLAS thread count
    assert run_child(W_KERNEL_MEASURED) == run_child(W_KERNEL_MEASURED, OPENBLAS_NUM_THREADS="1")
