"""Command-line entry point: suite execution, scans, kernel estimates, field I/O.

Subcommands:
  verify   run a check suite, write report CSV + JSON, exit 0 iff all pass
  check    run a single check by id
  scan     run a counterexample divergence scan, emit tidy CSV
  kernel   Feynman-Kac kernel estimate (--fk)
  field    dump an RZF1 field to CSV / load a CSV back to RZF1

Reports are deterministic for a fixed config and seed; the runtime_s
column is informational and excluded from that contract.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import fracpow, potentials, semigroup, verify
from .counterexamples import SCANS, divergence_scan
from .grid import Field, GridSpec, read_field, write_field

CSV_COLUMNS = (
    "check_id", "d", "n", "R", "potential", "p",
    "measured", "bound", "tolerance", "verdict", "seed", "runtime_s",
)


def _report_row(r: verify.CheckReport) -> dict:
    cfg = r.config
    # CE1-CE3 run on sections their notes record, not on cfg's grid and potential
    grid = {} if r.check_id in verify.COUNTEREXAMPLE_CHECKS else cfg
    return {
        "check_id": r.check_id,
        "d": ";".join(map(str, cfg["dims"])) if "dims" in cfg else grid.get("d", ""),
        "n": ";".join(map(str, cfg["ns"])) if "ns" in cfg else grid.get("n", ""),
        "R": f"{grid['R']:g}" if "R" in grid else "",
        # a catalog check names what ran, not cfg.potential, which it ignores
        "potential": ";".join(cfg["catalog"]) if "catalog" in cfg else grid.get("potential", ""),
        # the exponents the check ran, empty for a check whose note records none
        "p": ";".join(f"{p:g}" for p in cfg.get("p_values", ())),
        "measured": f"{r.measured_value:.12g}",
        "bound": f"{r.bound_value:.12g}",
        "tolerance": f"{r.tolerance:.12g}",
        "verdict": r.verdict,
        "seed": cfg.get("seed", ""),
        "runtime_s": f"{r.runtime_s:.3f}",
    }


def write_reports(reports: list[verify.CheckReport], out_dir: Path) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "reports.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for r in reports:
            writer.writerow(_report_row(r))
    json_path = out_dir / "reports.json"
    with open(json_path, "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2, default=float)
        fh.write("\n")
    return csv_path, json_path


# RunConfig fields whose flag is not --<field-with-dashes>
_FLAG_NAMES = {"p_list": "p", "out_dir": "out"}


def _load_config(args) -> verify.RunConfig:
    raw = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    for f in fields(verify.RunConfig):
        if getattr(args, f.name) is not None:
            raw[f.name] = getattr(args, f.name)
    return verify.RunConfig.from_dict(raw)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _error(exc: Exception) -> int:
    """Bad input: one line on stderr and exit status 2."""
    print(f"rzlab: error: {exc}", file=sys.stderr)
    return 2


def _add_config_flags(sub) -> None:
    """One flag per RunConfig field, typed by the field's default."""
    sub.add_argument("--config", help="JSON config file (flat RunConfig schema)")
    for f in fields(verify.RunConfig):
        kind = _float_list if isinstance(f.default, tuple) else type(f.default)
        sub.add_argument(f"--{_FLAG_NAMES.get(f.name, f.name.replace('_', '-'))}",
                         dest=f.name, type=kind, help=f"default: {f.default!r}")


def _finish(reports: list[verify.CheckReport], cfg: verify.RunConfig) -> int:
    csv_path, json_path = write_reports(reports, Path(cfg.out_dir))
    for r in reports:
        print(f"{r.check_id:14s} {r.verdict:6s} measured={r.measured_value:.6g} "
              f"bound={r.bound_value:.6g} ({r.runtime_s:.2f}s)")
    failing = [r.check_id for r in reports if not r.passed()]
    print(f"reports: {csv_path} {json_path}")
    if failing:
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    return _finish(verify.run_suite(args.suite, args.cfg), args.cfg)


def cmd_check(args) -> int:
    return _finish([verify.run_check(args.id, args.cfg)], args.cfg)


def cmd_scan(args) -> int:
    params = {k: v for k, v in (("eps", args.eps), ("p", args.scan_p)) if v is not None}
    try:
        deltas = _float_list(args.deltas) if args.deltas else None
        rep = divergence_scan(args.which, params, deltas)
    except ValueError as exc:
        return _error(exc)
    print(f"{rep.kind}: slope={rep.fit_slope:.6g} r2={rep.fit_r2:.6g} "
          f"expected={rep.expected_slope} verdict={rep.verdict}")
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scan", SCANS[args.which].x_name, "value"])
            for x, v in zip(rep.xs, rep.values):
                writer.writerow([rep.kind, f"{x:.12g}", f"{v:.12g}"])
        print(f"scan data: {path}")
    return 0 if rep.verdict == "pass" else 1


def cmd_kernel(args) -> int:
    try:
        if not args.fk:
            raise ValueError("only the Feynman-Kac estimator is available; pass --fk")
        pot = verify.parse_potential(args.potential)
        x = [float(v) for v in args.x.split(",")]
        y = [float(v) for v in args.y.split(",")]
        table = semigroup.fk_kernel_estimate(
            (pot,), [x], [y], [args.t], args.paths, args.seed, slices=args.slices
        )
    except (ValueError, OSError) as exc:  # OSError: an unreadable custom: field file
        return _error(exc)
    est, err = table[0, 0].tolist()
    print(f"kernel_estimate={est:.12g} stderr={err:.12g} "
          f"potential={pot.label()} t={args.t:g} paths={args.paths} seed={args.seed}")
    return 0


def cmd_field(args) -> int:
    try:
        return _field_dump(args) if args.action == "dump" else _field_load(args)
    # OSError: a missing input file; ValueError: not RZF1, a bad header or a bad value
    except (ValueError, OSError) as exc:
        return _error(exc)


def _field_dump(args) -> int:
    src = Path(args.path)
    f = read_field(src)
    out = Path(args.out) if args.out else src.with_suffix(".csv")
    with open(out, "w", newline="") as fh:
        fh.write(f"# RZF1 d={f.spec.d} n={f.spec.n} R={f.spec.R!r}\n")
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(f.spec.d)] + ["value"])
        pts = f.spec.points()
        for p, v in zip(pts, f.flat()):
            writer.writerow([repr(float(c)) for c in p] + [repr(float(v))])
    print(f"wrote {out}")
    return 0


def _field_load(args) -> int:
    src = Path(args.path)
    header = src.read_text().splitlines()
    spec = None
    if header and header[0].startswith("# RZF1"):
        meta = dict(kv.split("=") for kv in header[0].removeprefix("# RZF1").split())
        missing = [k for k in ("d", "n", "R") if k not in meta]
        if missing:
            raise ValueError(f"RZF1 header lacks {', '.join(missing)}: {header[0]!r}")
        spec = GridSpec(int(meta["d"]), int(meta["n"]), float(meta["R"]))
    elif args.d and args.n and args.R:
        spec = GridSpec(args.d, args.n, args.R)
    else:
        raise ValueError("csv lacks the RZF1 header; pass --d --n --R")
    rows = [r for r in header if r and not r.startswith("#")]
    values = [float(r.rsplit(",", 1)[-1]) for r in rows[1:]]
    if len(values) != spec.num_points:
        raise ValueError(f"csv has {len(values)} values, grid needs {spec.num_points}")
    out = Path(args.out) if args.out else src.with_suffix(".rzf")
    write_field(Field(spec, np.array(values).reshape(spec.shape)), out)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rzlab",
        description="Operator-calculus checks for Schrodinger operators on periodic boxes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="run a check suite")
    p_verify.add_argument("--suite", default="core", choices=sorted(verify.SUITES))
    _add_config_flags(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_check = subs.add_parser("check", help="run one check")
    p_check.add_argument("id", choices=sorted(verify.CHECKS))
    _add_config_flags(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_scan = subs.add_parser("scan", help="run a counterexample scan")
    p_scan.add_argument("which", choices=sorted(SCANS))
    p_scan.add_argument("--eps", type=float, help="CE1 exponent")
    p_scan.add_argument("--p", dest="scan_p", type=float, help="norm exponent")
    p_scan.add_argument("--deltas", help="comma-separated cutoffs (CE3: radii)")
    p_scan.add_argument("--out", help="tidy CSV output path")
    p_scan.set_defaults(fn=cmd_scan)

    p_kernel = subs.add_parser("kernel", help="kernel estimators")
    p_kernel.add_argument("--fk", action="store_true", help="Feynman-Kac Monte Carlo")
    p_kernel.add_argument("--potential", default="harmonic")
    p_kernel.add_argument("--x", default="0", help="comma-separated start point")
    p_kernel.add_argument("--y", default="0", help="comma-separated end point")
    p_kernel.add_argument("--t", type=float, default=0.25)
    p_kernel.add_argument("--paths", type=int, default=20000)
    p_kernel.add_argument("--seed", type=int, default=1234)
    p_kernel.add_argument("--slices", type=int, default=64)
    p_kernel.set_defaults(fn=cmd_kernel)

    p_field = subs.add_parser("field", help="RZF1 field file conversion")
    p_field.add_argument("action", choices=["dump", "load"])
    p_field.add_argument("path")
    p_field.add_argument("--out")
    p_field.add_argument("--d", type=int)
    p_field.add_argument("--n", type=int)
    p_field.add_argument("--R", type=float)
    p_field.set_defaults(fn=cmd_field)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    made = []  # the out directories this run creates
    if hasattr(args, "config"):  # verify and check run from a RunConfig
        try:
            args.cfg = _load_config(args)
            out = Path(args.cfg.out_dir)
            made = [q for q in (out, *out.parents) if not q.exists()]
            out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before any check runs
        except (ValueError, OSError) as exc:
            return _error(exc)
    try:
        return args.fn(args)
    # custom: on another grid, ce1 at d = 1; a quad_tol no rule reaches; past the dense cap
    except (potentials.GridMismatchError, fracpow.QuadratureBuildError,
            semigroup.DenseCapError) as exc:
        for q in made:  # bad input leaves no out directory behind
            q.rmdir()
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
