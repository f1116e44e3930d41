"""One cold-start pass of a workload, in its own interpreter.

    python3 perfbench/pass_worker.py MODE WORKLOAD SEED OUT_DIR

MODE is ``setup`` (import rzlab, build the RunConfig, stop), ``plain`` (run
the workload) or ``traced`` (run it under the tracer).  The pass writes
OUT_DIR/result.json; run.py reads it together with the process's resource
usage.  Set-up ends when ``rzlab`` is imported and the RunConfig is built,
as in a ``rzlab verify`` invocation; run.py measures it from the spawn.
"""

import hashlib
import json
import os
import sys
import time


def report_digest(report) -> str:
    """sha256 of the report without its runtime, as sorted JSON."""
    body = json.dumps(report.to_dict(include_runtime=False), sort_keys=True, default=float)
    return hashlib.sha256(body.encode()).hexdigest()


def _machine(numpy, scipy) -> dict:
    blas = {"name": "unknown", "version": "unknown"}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name", "unknown"), "version": deps.get("version", "unknown")}
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main(argv) -> int:
    mode, workload, seed, out_dir = argv[1], argv[2], int(argv[3]), argv[4]

    import rzlab
    from rzlab import cli, potentials, verify

    cfg = verify.RunConfig(seed=seed)
    setup_done = time.monotonic()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(rzlab.__file__).startswith(src + os.sep):
        print(f"rzlab was imported from {rzlab.__file__}, not from {src}", file=sys.stderr)
        return 3

    result = {"setup_done": setup_done, "notes": []}
    if mode == "setup":
        import numpy
        import scipy

        result["machine"] = _machine(numpy, scipy)
    else:
        from pathlib import Path

        import tracer
        import workloads

        traced = None
        if mode == "traced":
            traced = tracer.Tracer()
            tracer.install_rzlab(traced)
        t0 = time.perf_counter()
        outcomes = workloads.run(workload, cfg, verify, potentials, result["notes"])
        reports = [rep for _, rep, _ in outcomes if rep is not None]
        report_dir = Path(out_dir) / "reports"
        cli.write_reports(reports, report_dir)
        result["wall_s"] = time.perf_counter() - t0

        written = json.loads((report_dir / "reports.json").read_text())
        written = [(r["check_id"], r["verdict"]) for r in written]
        checks = []
        for cid, rep, error in outcomes:
            entry = {"id": cid, "error": error}
            if rep is not None:
                if (cid, rep.verdict) not in written:
                    entry["error"] = "missing from reports.json"
                entry.update(verdict=rep.verdict, digest=report_digest(rep),
                             measured=float(rep.measured_value))
            checks.append(entry)
        result["checks"] = checks
        if traced is not None:
            traced.uninstall()
            metrics, missing = traced.metrics()
            result["trace"] = {"metrics": metrics, "missing": missing}

    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
