"""The benchmark tracer finds every rzlab function it wraps.

A span whose function is deleted or renamed is reported as missing, and its
metrics then read 0 on working code; the hooks also read some arguments by
parameter name.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from rzlab import potentials
from rzlab.grid import Field, GridSpec

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# span -> the parameter its tracer hook reads by name
HOOK_PARAMETERS = {
    "spectral.apply_symbol_stack": "stack",
    "spectral.apply_multiplier": "f",
    "semigroup.evolve_stack": "steps",
    "fracpow.subordinated_apply_stack": "power",
    "verify.run_check": "check_id",
}


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_no_traced_function_is_missing(tracer):
    tr = tracer.Tracer()
    tracer.install_rzlab(tr)
    try:
        g = GridSpec(2, 8, 4.0)
        f = Field(g, np.cos(np.pi / 4.0 * g.mesh()[0]))
        V = potentials.discretize_potential(potentials.harmonic(), g)
        importlib.import_module("rzlab.riesz").schrodinger_riesz(f, V)
        metrics, missing = tr.metrics()
    finally:
        tr.uninstall()
    assert sorted(tr.missing) == []
    assert missing == []
    assert metrics["riesz.schrodinger_riesz.calls"] == 1
    assert metrics["spectral.fft_points"] > 0


@pytest.mark.parametrize("span,parameter", sorted(HOOK_PARAMETERS.items()))
def test_hook_parameters_keep_their_names(span, parameter):
    layer, fn = span.split(".")
    func = getattr(importlib.import_module(f"rzlab.{layer}"), fn)
    assert parameter in inspect.signature(func).parameters
