"""Tracer: self and total time, threads, missing functions, repeatable counters."""

import json
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent

FAKE_SOURCE = """
import time

def inner(delay):
    time.sleep(delay)

def outer(delay, inner_delay, entered=None):
    if entered is not None:
        entered.set()
    time.sleep(delay)
    inner(inner_delay)
"""


def fake_module():
    mod = types.ModuleType("fake")
    exec(FAKE_SOURCE, mod.__dict__)
    return mod


def traced(spans):
    mod = fake_module()
    tr = tracer.Tracer(spans)
    tr.install({"fake": mod}, [mod])
    return mod, tr


def test_nested_calls_split_self_and_total_time():
    mod, tr = traced({"fake": ("outer", "inner")})
    mod.outer(0.05, 0.03)
    m, missing = tr.metrics()
    assert missing == []
    assert m["fake.outer.calls"] == m["fake.inner.calls"] == 1
    assert m["fake.inner.self_s"] == m["fake.inner.total_s"] >= 0.03
    assert m["fake.outer.total_s"] >= 0.08
    assert abs(m["fake.outer.self_s"] - (m["fake.outer.total_s"] - m["fake.inner.total_s"])) < 1e-9
    assert m["fake.outer.self_s"] >= 0.05


def test_second_thread_does_not_take_self_time_from_the_first():
    mod, tr = traced({"fake": ("outer", "inner")})
    entered = threading.Event()

    def other_caller():
        entered.wait(5)
        for _ in range(3):
            mod.inner(0.05)

    t = threading.Thread(target=other_caller)
    t.start()
    mod.outer(0.2, 0.01, entered)
    t.join(5)
    assert not t.is_alive()
    m, _ = tr.metrics()
    assert m["fake.inner.calls"] == 4
    # a shared span stack would charge the other thread's 0.15 s of inner to outer
    assert m["fake.outer.self_s"] >= 0.2
    assert m["fake.outer.total_s"] - m["fake.outer.self_s"] < 0.1


def test_removed_function_is_reported_missing():
    mod, tr = traced({"fake": ("outer", "inner", "gone")})
    mod.outer(0.0, 0.0)
    m, missing = tr.metrics()
    assert set(missing) == {"fake.gone.calls", "fake.gone.total_s", "fake.gone.self_s"}
    assert m["fake.gone.calls"] == 0
    assert m["fake.outer.calls"] == 1


def test_uninstall_restores_every_binding():
    mod = fake_module()
    orig_outer, orig_inner = mod.outer, mod.inner
    alias = types.ModuleType("alias")
    alias.inner = orig_inner
    tr = tracer.Tracer({"fake": ("outer", "inner")})
    tr.install({"fake": mod}, [mod, alias])
    assert alias.inner is mod.inner is not orig_inner
    tr.uninstall()
    assert (mod.outer, mod.inner, alias.inner) == (orig_outer, orig_inner, orig_inner)


def test_benchmark_json_names_only_metrics_the_benchmark_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = set(tracer.metric_names()) | {"trace.overhead_frac"}
    assert [m["name"] for m in bench["per_layer"] if m["name"] not in known] == []
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]


COUNTER_SNIPPET = """
import json, sys
import tracer
from rzlab import frac_power_apply, potentials, verify
from rzlab.grid import GridSpec, Field
import numpy as np

tr = tracer.Tracer()
tracer.install_rzlab(tr)
for cid in ("DOMINATION", "FK_ORACLE", "COMPOSITION"):
    verify.run_check(cid)
grid = GridSpec(1, 16, 4.0)
V = potentials.discretize_potential(potentials.harmonic(), grid)
frac_power_apply(Field(grid, np.cos(grid.axis())), V, -0.5)
m, missing = tr.metrics()
print(json.dumps({k: m[k] for k in ("semigroup.strang_steps", "spectral.fft_points",
                                    "semigroup.eigh_calls")}))
"""


def test_work_counters_repeat_exactly_across_fresh_interpreters():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(BENCH_DIR), str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    runs = []
    for _ in range(2):
        out = subprocess.run([sys.executable, "-c", COUNTER_SNIPPET], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    assert runs[0] == runs[1]
    assert all(v > 0 for v in runs[0].values())
