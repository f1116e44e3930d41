"""rzlab benchmark: cold-start verification workloads, end to end and per layer.

    python3 perfbench/run.py [--workload oracles|core-ce|core-2way|all]
                             [--seed 1234] [--seconds 30] [--trace 0|1]

Each pass of a workload runs in a fresh interpreter (pass_worker.py).  A run
repeats passes, closed loop, while one more pass is expected to end within
``--seconds``, and makes at least one.  SETUP_PROBES interpreters that only
import rzlab run before and after the passes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians over
the run's samples.  ``--trace 1`` reports its per-layer metrics from traced
passes, medians over those passes, and ``trace.overhead_frac`` against the
untraced wall time of the same code.

Every pass is checked: a check fails if it raises, if its verdict is not
``pass``, or if its report digest (sha256 of ``to_dict(include_runtime=False)``
as sorted JSON) differs from the first digest recorded for the same check,
seed and code, by any workload.  ``core-2way`` and ``core-ce`` thus
check each other across jobs.  A pass whose process fails counts all of its
checks as failed.  The last line of stdout is one JSON object; the exit
status is 1 when any check failed.

Holdout seed for gain claims: 7 (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".bench_build" / "perfbench"
DEFAULT_SEED = 1234
HOLDOUT_SEED = 7
SETUP_PROBES = 6
# A run ends within this many seconds; a pass still going then is killed
# and its checks count as failed.
RUN_DEADLINE_S = 170.0


@dataclass
class Pass:
    mode: str
    setup_s: float | None = None
    wall_s: float | None = None
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    checks: list = field(default_factory=list)
    error: str | None = None
    notes: list = field(default_factory=list)
    trace: dict | None = None
    machine: dict | None = None


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` with its own resource usage; kill it at ``deadline``."""
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, 0 if killed else os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage, killed
        if time.monotonic() > deadline:
            proc.kill()
            killed = True
        else:
            time.sleep(0.02)


def spawn(mode: str, workload: str, seed: int, deadline: float) -> Pass:
    pass_dir = STATE_DIR / "pass"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH_DIR / "pass_worker.py"), mode, workload, str(seed), str(pass_dir)]
    with open(pass_dir / "log.txt", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        usage, killed = _wait(proc, deadline)
    p = Pass(mode, cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0)
    result_path = pass_dir / "result.json"
    if killed or proc.returncode != 0 or not result_path.exists():
        tail = (pass_dir / "log.txt").read_text(errors="replace").strip().splitlines()[-5:]
        why = "killed at the run deadline" if killed else f"exit status {proc.returncode}"
        p.error = f"pass process {why}: " + " | ".join(tail)
        return p
    res = json.loads(result_path.read_text())
    p.setup_s = res["setup_done"] - spawned
    p.wall_s = res.get("wall_s")
    p.checks = res.get("checks", [])
    p.notes = res.get("notes", [])
    p.trace = res.get("trace")
    p.machine = res.get("machine")
    return p


def code_hash() -> str:
    """Hash of the rzlab sources and of the benchmark code that drives them."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Store:
    """JSON state kept in the checkout across runs, keyed by code_hash()."""

    def __init__(self, name: str, tree: str):
        self.path = STATE_DIR / f"{name}-{tree}.json"
        self.data = json.loads(self.path.read_text()) if self.path.exists() else {}

    def save(self) -> None:
        STATE_DIR.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def score(p: Pass, workload: str, seed: int, digests: Store) -> list[tuple[str, str]]:
    """Failed checks of one pass as (check id, reason)."""
    if p.error is not None:
        return [(cid, p.error) for cid in workloads.EXPECTED[workload]]
    failed = []
    for c in p.checks:
        if c["error"] is not None:
            failed.append((c["id"], c["error"]))
            continue
        if c["verdict"] != "pass":
            failed.append((c["id"], f"verdict {c['verdict']}"))
        first = digests.data.setdefault(f"seed{seed}/{c['id']}", [c["digest"], workload])
        if first[0] != c["digest"]:
            failed.append((c["id"], f"report digest differs from the first {first[1]} pass"))
    return failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def machine_info(probe: dict | None) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or commit
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        **(probe or {}),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 digests: Store, walls: Store) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    # half the set-up probes before the passes and half after, so that a
    # change in machine speed during the run reaches both halves
    probes = [spawn("setup", workload, seed, deadline) for _ in range(SETUP_PROBES // 2)]
    passes: list[Pass] = []
    baseline = walls.data.get(workload, [])
    if trace and not baseline:
        passes.append(spawn("plain", workload, seed, deadline))
    loop_start, looped = time.monotonic(), 0
    while True:
        passes.append(spawn("traced" if trace else "plain", workload, seed, deadline))
        looped += 1
        spent = time.monotonic() - loop_start
        if passes[-1].error or spent + spent / looped > seconds:
            break

    if time.monotonic() < deadline - 10.0:
        probes += [spawn("setup", workload, seed, deadline) for _ in range(SETUP_PROBES - len(probes))]

    failed, attempted = [], 0
    for p in passes:
        attempted += len(workloads.EXPECTED[workload]) if p.error else len(p.checks)
        failed += score(p, workload, seed, digests)
    setup_failed = [p.error for p in probes if p.error]

    plain = [p for p in passes if p.mode == "plain" and p.error is None]
    walls.data[workload] = (baseline + [p.wall_s for p in plain])[-50:]
    samples = {
        "setup_s": [p.setup_s for p in probes + passes if p.setup_s is not None],
        "wall_s": [p.wall_s for p in plain],
        "cpu_s": [p.cpu_s for p in plain],
        "peak_rss_mb": [p.rss_mb for p in plain],
    }
    layers, missing = {}, set()
    traced = [p for p in passes if p.mode == "traced" and p.trace]
    if traced:
        for name in traced[0].trace["metrics"]:
            layers[name] = statistics.median(p.trace["metrics"][name] for p in traced)
        missing = set(traced[0].trace["missing"])
        layers["trace.overhead_frac"] = 0.0
        if walls.data[workload]:
            base = statistics.median(walls.data[workload])
            layers["trace.overhead_frac"] = statistics.median(p.wall_s for p in traced) / base - 1.0
        else:  # the untraced pass failed
            missing.add("trace.overhead_frac")
    return {
        "workload": workload,
        "seed": seed,
        "passes": [
            {"mode": p.mode, "setup_s": p.setup_s, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
             "peak_rss_mb": p.rss_mb, "error": p.error, "notes": p.notes}
            for p in passes
        ],
        "samples": samples,
        "layers": layers,
        "missing": sorted(missing),
        "attempted": attempted,
        "failed": failed,
        "setup_failed": setup_failed,
        "probes": len(probes),
        "machine": next((p.machine for p in probes if p.machine), None),
        "elapsed_s": time.monotonic() - start,
    }


def print_report(res: dict, bench: dict, trace: bool) -> None:
    w = res["workload"]
    modes = [p["mode"] for p in res["passes"]]
    print(f"== {w}  seed {res['seed']}  passes: "
          + ", ".join(f"{modes.count(m)} {m}" for m in ("plain", "traced") if m in modes)
          + f"  ({res['elapsed_s']:.1f} s)")
    if not trace:
        print(f"   {'metric':<20} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
        for m in bench["end_to_end"]:
            vals = res["samples"][m["name"]]
            if not vals:
                print(f"   {m['name']:<20} {m['unit']:<6} {'no sample':>12}")
                continue
            q1, med, q3 = quartiles(vals)
            print(f"   {m['name']:<20} {m['unit']:<6} {med:12.4f} {q1:12.4f} {q3:12.4f} {len(vals):3d}")
    else:
        for m in bench["per_layer"]:
            value = res["layers"].get(m["name"])
            shown = "missing" if m["name"] in res["missing"] else f"{value:.6g}"
            print(f"   {m['name']:<52} {m['unit']:<7} {shown}")
    frac = len(res["failed"]) / res["attempted"]
    print(f"   {'checks_failed_frac':<20} {'1':<6} {frac:12.4f}  "
          f"({len(res['failed'])} of {res['attempted']} checks)")
    for cid, why in res["failed"]:
        print(f"   FAILED {cid}: {why}")
    for why in res["setup_failed"]:
        print(f"   FAILED set-up probe: {why}")
    for p in res["passes"]:
        for note in p["notes"]:
            print(f"   note: {note}")


def metrics_of(res: dict, bench: dict, trace: bool, prefix: str = "") -> dict:
    out = {}
    if not trace:
        for m in bench["end_to_end"]:
            vals = res["samples"][m["name"]]
            if vals:
                out[prefix + m["name"]] = {"value": statistics.median(vals), "unit": m["unit"]}
    else:
        for m in bench["per_layer"]:
            if m["name"] in res["missing"]:
                out[prefix + m["name"]] = {"value": 0, "unit": m["unit"], "missing": True}
            elif m["name"] in res["layers"]:
                out[prefix + m["name"]] = {"value": res["layers"][m["name"]], "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.EXPECTED, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rzlab" / "__init__.py").is_file():
        print(f"no rzlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    tree = code_hash()
    digests, walls = Store("digests", tree), Store("walls", tree)
    names = list(workloads.EXPECTED) if args.workload == "all" else [args.workload]
    results = []
    for w in names:
        results.append(run_workload(w, args.seed, args.seconds, bool(args.trace), digests, walls))
        digests.save()
        walls.save()

    machine = machine_info(results[0]["machine"])
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"seed {args.seed} (holdout seed for gain claims: {HOLDOUT_SEED})")
    for res in results:
        print_report(res, bench, bool(args.trace))
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    out_path = STATE_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"machine": machine, "results": results}, indent=1, default=str))
    print(f"details: {out_path.relative_to(ROOT)}")

    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        metrics.update(metrics_of(res, bench, bool(args.trace), prefix))
    # operations: every check of every pass, plus the set-up probes
    failed = sum(len(r["failed"]) + len(r["setup_failed"]) for r in results)
    attempted = sum(r["attempted"] + r["probes"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
