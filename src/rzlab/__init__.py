"""Operator calculus and inequality checks for Schrodinger operators
L = -Delta + V with nonnegative potentials, on discretized periodic boxes.
"""

import os

# Every eigh of the core and counterexamples suites has order <= 343 and every solve order 256:
# at such orders a second OpenBLAS thread gains no wall time and spins against other callers.
if not any(os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .grid import Field, GridSpec, lp_norm, read_field, weak_l1, write_field
from .potentials import PotentialSpec, discretize_potential
from .semigroup import DenseOperator, dense_schrodinger, fk_kernel_estimate
from .fracpow import (
    TimeQuadrature,
    build_quadrature,
    frac_power_apply,
    green_mass_all,
    perturbation_kernel,
)
from .riesz import RieszResult, schrodinger_riesz, sqrt_potential_inv_sqrt
from .counterexamples import SCANS, divergence_scan, green_bounded_check
from .verify import CheckReport, RunConfig, run_check, run_suite

__all__ = [
    "Field",
    "GridSpec",
    "lp_norm",
    "weak_l1",
    "read_field",
    "write_field",
    "PotentialSpec",
    "discretize_potential",
    "DenseOperator",
    "dense_schrodinger",
    "fk_kernel_estimate",
    "TimeQuadrature",
    "build_quadrature",
    "frac_power_apply",
    "green_mass_all",
    "perturbation_kernel",
    "RieszResult",
    "schrodinger_riesz",
    "sqrt_potential_inv_sqrt",
    "SCANS",
    "divergence_scan",
    "green_bounded_check",
    "CheckReport",
    "RunConfig",
    "run_check",
    "run_suite",
]

__version__ = "0.1.0"
