"""Command-line front end.

Every computation of the library is exposed as a subcommand emitting a
machine-readable document, JSON or CSV, to stdout or a file.  Output is
deterministic: floats are always rendered with 17 significant digits and
'.' as decimal separator, so identical invocations are byte-identical and
JSON output re-parses to the exact input parameters.

Exit codes: 0 success, 2 parameter validation failure or an ``--out`` path
that cannot be written, 3 computational failure (the structured error
record carries the taxonomy name), which includes a result document that
would hold a non-finite value.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections import Counter
from dataclasses import replace

import numpy as np

from . import geometry, phasescan
from .errors import DrivenSpinError, NonConverged
from .evolution import CyclicSystem, propagator_rk4
from .qmodel import (
    LABELS,
    DriveConfig,
    StateLabel,
    _lab_hamiltonian,
    _rotating_hamiltonian,
)
from .spectra import _closed_energy_table, band_order, eigh_stack

SCHEMA_VERSION = 1

_ANGLE_RE = re.compile(
    r"^([+-]?)(\d+\.?\d*|\.\d+)?\*?pi(?:/(\d+\.?\d*|\.\d+))?$", re.IGNORECASE
)


def parse_angle(text: str) -> float:
    """Decimal radians, or literals like 'pi', '-pi/2', '2pi/5', '0.75pi'."""
    try:
        return float(text)
    except ValueError:
        pass
    m = _ANGLE_RE.match(text.strip().replace(" ", ""))
    if m is None:
        raise argparse.ArgumentTypeError(
            f"invalid angle {text!r}; use decimal radians or a pi literal like pi/2"
        )
    sign = -1.0 if m.group(1) == "-" else 1.0
    coef = float(m.group(2)) if m.group(2) else 1.0
    div = float(m.group(3)) if m.group(3) else 1.0
    return sign * coef * math.pi / div


def _fmt(value) -> str:
    """CSV rendering of one table value: as in JSON, but None empty and strings bare."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return _json_dumps(value)


def _json_dumps(obj) -> str:
    """Deterministic JSON with .17g float rendering (insertion-ordered keys)."""
    if isinstance(obj, (float, np.floating)):  # first: the most frequent type
        value = float(obj)
        if not math.isfinite(value):
            raise NonConverged(f"the result holds the non-finite value {value}")
        return format(value, ".17g")
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, dict):
        items = (f"{_json_dumps(str(k))}: {_json_dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


#: Parameters a document records, in this order, for the subcommands that have them.
_PARAM_KEYS = (
    "b theta phi omega t_lr regime method theta_steps theta_min theta_max n_steps"
    " n_theta n_phi m1 m2 rk4_steps b_min b_max omega_min omega_max n_b n_omega"
).split()


def _emit(args, results, diagnostics: dict) -> None:
    """Write the result document in the selected format.

    ``results`` is a (header, rows) table or a flat record.  JSON holds
    schema_version, params, results (a table as columns and rows) and
    diagnostics.  CSV is a table's header and rows, without diagnostics, or
    a record's ``key,value`` rows, results first, then diagnostics.
    """
    table = isinstance(results, tuple)
    if args.format == "json":
        params = {"command": args.command}
        params.update((k, getattr(args, k)) for k in _PARAM_KEYS if hasattr(args, k))
        doc = {
            "schema_version": SCHEMA_VERSION,
            "params": params,
            "results": {"columns": results[0], "rows": results[1]} if table else results,
            "diagnostics": diagnostics,
        }
        text = _json_dumps(doc) + "\n"
    else:
        header, rows = (
            results if table else (["key", "value"], [*results.items(), *diagnostics.items()])
        )
        lines = [",".join(header)]
        lines += (",".join(map(_fmt, row)) for row in rows)
        text = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc


def _config_from(args) -> DriveConfig:
    """DriveConfig from CLI flags; --phi sets phi_l = 0, phi_r = -phi."""
    return DriveConfig(
        b=args.b,
        theta=getattr(args, "theta", 0.0),
        phi_l=0.0,
        phi_r=-args.phi,
        omega=args.omega,
        t_lr=args.t_lr,
    )


def _label_columns(stem: str) -> list[str]:
    return [f"{stem}_{lab}" for lab in map(str, LABELS)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> tuple[tuple, dict]:
    """Energy (or quasienergy) curves vs theta, numerical and closed form."""
    thetas = np.linspace(0.0, math.pi, args.theta_steps)
    cfg0 = _config_from(args)
    closed = _closed_energy_table(cfg0, args.regime, thetas)  # (n, 4) in LABELS order
    if args.regime == "adiabatic":
        hs = _lab_hamiltonian(cfg0.b, thetas, cfg0.phi_l, cfg0.phi_r, cfg0.t_lr, 0.0)
    else:
        hs = _rotating_hamiltonian(
            cfg0.b, thetas, cfg0.phi_l, cfg0.phi_r, cfg0.t_lr, cfg0.omega
        )
    values, _ = eigh_stack(hs)
    # Energy tables need no eigenvectors, so rows are matched by sort order
    # of the closed forms; at band crossings the tied values are equal and
    # the assignment is immaterial.
    numeric = np.take_along_axis(values, band_order(closed), axis=-1)
    deviation = float(np.max(np.abs(numeric - closed)))
    rows = np.column_stack([thetas, numeric, closed]).tolist()
    header = ["theta"] + _label_columns("num") + _label_columns("closed")
    return (header, rows), {"max_num_closed_deviation": deviation}


def cmd_berry(args) -> tuple[tuple, dict]:
    """Geometric-phase curves vs theta: numerical route, closed form, difference."""
    thetas = np.linspace(args.theta_min, args.theta_max, args.theta_steps)
    cfg0 = _config_from(args)
    cfg0.phase_branch()  # a bad branch fails the command; row errors are recorded
    rows = []
    worst = 0.0
    failed = 0
    for th in thetas:
        row = [float(th)]
        err = None
        for lab in LABELS:
            try:
                if args.regime == "adiabatic":
                    numeric = geometry.berry_phase_wilson(
                        cfg0, float(th), lab, n_steps=args.n_steps
                    )
                    closed = geometry.berry_phase_closed(cfg0, float(th), lab)
                else:
                    cfg = replace(cfg0, theta=float(th))
                    numeric = geometry.fold_phase(
                        2.0 * math.pi * geometry.rotating_sz_expectation(cfg, lab)
                    )
                    closed = geometry.aa_phase_closed(cfg, lab)
                diff = geometry.circular_distance(numeric, closed)
                worst = max(worst, diff)
                row += [numeric, closed, diff]
            except DrivenSpinError as exc:
                err = type(exc).__name__
                row += [None, None, None]
        row.append(err)
        failed += err is not None
        rows.append(row)
    header = ["theta"]
    for lab in map(str, LABELS):
        header += [f"num_{lab}", f"closed_{lab}", f"circdiff_{lab}"]
    header.append("error")
    return (header, rows), {"max_circular_difference": worst, "failed_rows": failed}


def cmd_chern(args) -> tuple[tuple, dict]:
    """Per-band Chern numbers by closed form and by the lattice method."""
    cfg = _config_from(args)
    report = geometry.chern_lattice(
        cfg, n_theta=args.n_theta, n_phi=args.n_phi, regime=args.regime
    )
    rows = []
    for lab in LABELS:
        closed = geometry.chern_closed(cfg, lab, args.regime)
        rows.append([str(lab), closed, report.c1[lab]])
    header = ["label", "closed", "lattice"]
    diagnostics = {
        "min_gap": report.min_gap,
        "n_theta": report.n_theta,
        "n_phi": report.n_phi,
        "band_sum": report.band_sum(),
    }
    return (header, rows), diagnostics


def cmd_evolve(args) -> tuple[dict, dict]:
    """One-period phase breakdown plus propagator diagnostics."""
    cfg = _config_from(args)
    label = StateLabel(args.m1, args.m2)
    system = CyclicSystem.of(cfg)
    breakdown = system.phases(label)
    u_exact = system.propagator(breakdown.period)
    u_rk4, drift = propagator_rk4(
        cfg, breakdown.period, n_steps=args.rk4_steps, return_drift=True
    )
    unitarity = float(
        np.max(np.abs(u_exact.conj().T @ u_exact - np.eye(4)))
    )
    quad = system.dynamical_quadrature(label)
    results = {
        "total": breakdown.total,
        "dynamical": breakdown.dynamical,
        "geometric": breakdown.geometric,
        "period": breakdown.period,
    }
    diagnostics = {
        "exact_unitarity_defect": unitarity,
        "rk4_deviation": float(np.max(np.abs(u_exact - u_rk4))),
        "rk4_reunitarization_norm": drift,
        "floquet_residual": system.floquet_residual(label),
        "dynamical_quadrature_circdiff": geometry.circular_distance(
            geometry.fold_phase(quad), breakdown.dynamical
        ),
    }
    return results, diagnostics


def cmd_phase_diagram(args) -> tuple[tuple, dict]:
    """Classified (B, Omega) grid for the phase diagram."""
    cells = phasescan.scan_diagram(
        (args.b_min, args.b_max),
        (args.omega_min, args.omega_max),
        t_lr=args.t_lr,
        phi=args.phi,
        n_b=args.n_b,
        n_omega=args.n_omega,
        method=args.method,
        n_workers=args.threads,
    )
    rows = []
    for cell in cells:
        rows.append(
            [
                cell.b,
                cell.omega,
                cell.phase.render() if cell.phase else None,
                cell.phase.c_plus if cell.phase else None,
                cell.phase.c_minus if cell.phase else None,
                cell.boundary_distance,
                cell.error,
            ]
        )
    # a cell holds either a class or the name of the error that replaced it
    counts = Counter(row[2] or row[6] for row in rows)
    header = ["b", "omega", "class", "c_plus", "c_minus", "boundary_distance", "error"]
    return (header, rows), {"class_counts": dict(sorted(counts.items()))}


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def _add_drive_flags(p):
    p.add_argument("--b", type=float, required=True, help="field magnitude (> 0)")
    p.add_argument("--t-lr", dest="t_lr", type=float, default=0.0, help="tunneling")
    p.add_argument(
        "--phi",
        type=parse_angle,
        default=0.0,
        help="site phase difference (sets phi_l = 0, phi_r = -phi); accepts pi literals",
    )
    p.add_argument("--omega", type=float, default=0.0, help="drive frequency")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivenspin",
        description="Geometric phases and topological invariants of a driven "
        "two-site spin qubit",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--threads", type=int, default=1, help="scan worker threads (>= 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="energy curves vs theta")
    _add_drive_flags(p)
    p.add_argument("--regime", choices=("adiabatic", "rotating"), default="adiabatic")
    p.add_argument("--theta-steps", dest="theta_steps", type=int, default=200)
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("berry", help="geometric phase curves vs theta")
    _add_drive_flags(p)
    p.add_argument(
        "--regime", choices=("adiabatic", "nonadiabatic"), default="adiabatic"
    )
    p.add_argument("--theta-steps", dest="theta_steps", type=int, default=50)
    p.add_argument("--theta-min", dest="theta_min", type=parse_angle, default=0.02)
    p.add_argument(
        "--theta-max", dest="theta_max", type=parse_angle, default=math.pi - 0.02
    )
    p.add_argument("--n-steps", dest="n_steps", type=int, default=512)
    p.set_defaults(handler=cmd_berry)

    p = sub.add_parser("chern", help="per-band Chern numbers, both methods")
    _add_drive_flags(p)
    p.add_argument(
        "--regime", choices=("adiabatic", "nonadiabatic"), default="adiabatic"
    )
    p.add_argument("--n-theta", dest="n_theta", type=int, default=100)
    p.add_argument("--n-phi", dest="n_phi", type=int, default=100)
    p.set_defaults(handler=cmd_chern)

    p = sub.add_parser("evolve", help="one-period phase extraction")
    _add_drive_flags(p)
    p.add_argument("--theta", type=parse_angle, required=True, help="polar angle in [0, pi]")
    p.add_argument("--m1", type=int, choices=(-1, 1), default=1)
    p.add_argument("--m2", type=int, choices=(-1, 1), default=1)
    p.add_argument("--rk4-steps", dest="rk4_steps", type=int, default=2000)
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser("phase-diagram", help="classified (B, Omega) grid")
    p.add_argument("--b-min", dest="b_min", type=float, default=0.0)
    p.add_argument("--b-max", dest="b_max", type=float, default=6.0)
    p.add_argument("--omega-min", dest="omega_min", type=float, default=0.0)
    p.add_argument("--omega-max", dest="omega_max", type=float, default=6.0)
    p.add_argument("--n-b", dest="n_b", type=int, default=60)
    p.add_argument("--n-omega", dest="n_omega", type=int, default=60)
    p.add_argument("--t-lr", dest="t_lr", type=float, default=1.0)
    p.add_argument("--phi", type=parse_angle, default=math.pi)
    p.add_argument("--method", choices=("closed", "lattice"), default="closed")
    p.set_defaults(handler=cmd_phase_diagram)
    return parser


def _error_record(name: str, message: str) -> str:
    return _json_dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "error": {"name": name, "message": message},
        }
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            parser.error(f"argument --threads: must be at least 1, got {args.threads}")
        if getattr(args, "theta_steps", 1) < 1:
            parser.error(
                f"argument --theta-steps: must be at least 1, got {args.theta_steps}"
            )
    except SystemExit as exc:  # argparse validation or --help
        return int(exc.code or 0)
    try:
        _emit(args, *args.handler(args))
    except DrivenSpinError as exc:
        print(_error_record(type(exc).__name__, str(exc)), file=sys.stderr)
        return 3
    except ValueError as exc:
        print(_error_record("ValidationError", str(exc)), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
