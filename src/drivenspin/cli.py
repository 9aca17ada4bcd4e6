"""Command-line front end.

Every computation of the library is exposed as a subcommand emitting a
machine-readable document, JSON or CSV, to stdout or a file.  Output is
deterministic: floats are always rendered with 17 significant digits and
'.' as decimal separator, so identical invocations are byte-identical and
JSON output re-parses to the exact input parameters.

Exit codes: 0 success, 2 parameter validation failure or an ``--out`` path
that cannot be written (a ``ValidationError``), 3 computational failure
(the structured error record carries the taxonomy name), which includes a
result document that would hold a non-finite value.  Any other exception
is a fault of the program, not of its input, and is not caught.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import replace

import numpy as np

from . import geometry, phasescan
from .errors import DrivenSpinError, NonConverged, ValidationError
from .evolution import CyclicSystem, _rk4_error_estimate, propagator_rk4
from .qmodel import LABELS, DriveConfig, StateLabel, _rotating_hamiltonian
from .spectra import _closed_energy_table, _sector_roots, band_order, eigh_stack

SCHEMA_VERSION = 1

#: Largest grid one command may request: theta rows, lattice sites, RK4
#: steps, closed diagram cells or the lattice sites of all lattice diagram
#: cells.  Larger grids exhaust memory or run for hours, so they are refused
#: before any computation.
MAX_GRID_POINTS = 2**20

#: (flags, their attributes, points per unit, condition) of each grid a
#: command can request.  An entry applies when the command has all its
#: attributes and meets its (attribute, value) condition, if it has one.
_GRIDS = (
    ("--theta-steps", ("theta_steps",), 1, None),
    ("--n-theta * --n-phi", ("n_theta", "n_phi"), 1, None),
    ("--rk4-steps", ("rk4_steps",), 1, None),
    ("--n-b * --n-omega", ("n_b", "n_omega"), 1, ("method", "closed")),
    # a lattice diagram computes one Chern grid per cell
    (
        f"--n-b * --n-omega * {phasescan.DEFAULT_LATTICE_RESOLUTION}**2",
        ("n_b", "n_omega"),
        phasescan.DEFAULT_LATTICE_RESOLUTION**2,
        ("method", "lattice"),
    ),
)

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
    if div == 0.0:
        raise argparse.ArgumentTypeError(f"invalid angle {text!r}: zero divisor")
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
    # first: the most frequent type, by its exact type before the isinstance test
    if type(obj) is float or isinstance(obj, (float, np.floating)):
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
        return "[" + ", ".join(map(_json_dumps, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


#: Parameters a document records, in this order, for the subcommands that have them.
_PARAM_KEYS = (
    "b theta phi omega t_lr regime method theta_steps theta_min theta_max n_theta"
    " n_phi m1 m2 rk4_steps b_min b_max omega_min omega_max n_b n_omega"
).split()


#: Table rows rendered at a time, which bounds the cell texts held at once.
_BLOCK_ROWS = 4096


# One cache serves all the sequence columns of a block, because columns repeat
# each other's values: the README `spectrum`'s 1800 cells hold about 920
# distinct values, while a cache per column would format all 1800.
class _Texts(dict):
    """``cell(value)`` of one block's values, each distinct value computed once.

    A Python float is its own key; any other value is keyed by (type, value),
    since 1, 1.0 and True are equal.  A float zero is not kept: -0.0 == 0.0
    would share a text.
    """

    def __init__(self, cell):
        self.cell = cell

    def __missing__(self, key):
        value = key[1] if type(key) is tuple else key
        text = self.cell(value)
        if value or not isinstance(value, (float, np.floating)):
            self[key] = text
        return text


class _Coded:
    """A table column whose row i holds ``values[codes[i]]``, codes an int array."""

    def __init__(self, codes: np.ndarray, values):
        self.codes, self.values = codes, values

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, rows: slice) -> _Coded:
        return _Coded(self.codes[rows], self.values)

    def __iter__(self):
        return map(self.values.__getitem__, self.codes.tolist())


def _column_texts(col, cell, known: _Texts) -> list[str]:
    """``cell`` of each value of one block of a table column.

    A float64 array is rendered once per distinct bit pattern, so -0.0 and
    0.0 keep their own texts, and a ``_Coded`` column once per code it
    holds; the texts are then gathered by index.  Any other column is a
    sequence, rendered through ``known``.
    """
    if isinstance(col, np.ndarray):
        distinct, index = np.unique(col.view(np.int64), return_inverse=True)
        values = distinct.view(np.float64).tolist()
    elif isinstance(col, _Coded):
        distinct, index = np.unique(col.codes, return_inverse=True)
        values = [col.values[k] for k in distinct.tolist()]
    else:
        return [known[v] if type(v) is float else known[type(v), v] for v in col]
    return np.array([cell(v) for v in values], dtype=object)[index].tolist()


def _table_rows(columns, cell, sep: str, row: str, row_sep: str, header=None) -> list[str]:
    """Texts whose concatenation is the table's rows: one per block of rows, and row_sep.

    Each row is ``row`` with its cells, rendered by ``cell`` and joined by
    ``sep``, in place of '{}'; ``row_sep`` separates rows.  A column is a
    sequence, a float64 array or a ``_Coded`` column.  A block that fails
    is rendered again row by row, so it raises at the value the whole
    document would; with a ``header``, the error names that value's column
    and row (counted from 0).
    """
    start, end = row.split("{}")
    texts = []
    for i in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [col[i : i + _BLOCK_ROWS] for col in columns]
        known = _Texts(cell)
        try:
            rows = zip(*[_column_texts(col, cell, known) for col in block])
        except NonConverged:  # raised again, at the block's first bad cell in row order
            for r, values in enumerate(zip(*block), i):
                for j, v in enumerate(values):
                    try:
                        cell(v)
                    except NonConverged as exc:
                        if header is None:
                            raise
                        raise NonConverged(f"{exc} in column {header[j]!r} at row {r}") from None
        texts += [row_sep, start + (end + row_sep + start).join(map(sep.join, rows)) + end]
    return texts[1:]


def _emit(args, results, diagnostics: dict) -> None:
    """Write the result document in the selected format.

    ``results`` is a (header, columns) table or a flat record.  JSON holds
    schema_version, params, results (a table as columns and rows) and
    diagnostics.  CSV is a table's header and rows, without diagnostics, or
    a record's ``key,value`` rows, results first, then diagnostics.  The
    document is rendered in full, in document order, before it is written.
    """
    table = isinstance(results, tuple)
    if args.format == "json":
        params = {"command": args.command}
        params.update((k, getattr(args, k)) for k in _PARAM_KEYS if hasattr(args, k))
        texts = [
            f'{{"schema_version": {SCHEMA_VERSION}, "params": {_json_dumps(params)}, "results": '
        ]
        if table:
            texts += [f'{{"columns": {_json_dumps(results[0])}, "rows": [',
                      *_table_rows(results[1], _json_dumps, ", ", "[{}]", ", ", results[0]),
                      "]}"]
        else:
            texts.append(_json_dumps(results))
        texts.append(f', "diagnostics": {_json_dumps(diagnostics)}}}\n')
    else:
        header, columns = (
            results if table
            else (["key", "value"], list(zip(*results.items(), *diagnostics.items())))
        )
        texts = [",".join(header) + "\n",
                 *_table_rows(columns, _fmt, ",", "{}\n", "", header if table else None)]
    if not args.out:
        sys.stdout.writelines(texts)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(texts)
    except OSError as exc:
        raise ValidationError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc


def _config_from(args) -> DriveConfig:
    """DriveConfig from CLI flags; --phi sets phi_l = 0, phi_r = -phi."""
    cfg = DriveConfig(
        b=args.b,
        theta=getattr(args, "theta", 0.0),
        phi_l=0.0,
        phi_r=-args.phi,
        omega=args.omega,
        t_lr=args.t_lr,
    )
    cfg.phase_branch()  # an off-branch --phi fails here, before any computation
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> tuple[tuple, dict]:
    """Energy (or quasienergy) curves vs theta, numerical and closed form."""
    thetas = np.linspace(0.0, math.pi, args.theta_steps)
    cfg = _config_from(args)
    closed = _closed_energy_table(cfg, args.regime, thetas)  # (n, 4) in LABELS order
    # the adiabatic Hamiltonian is the rotating frame of a drive at rest
    rotating = cfg if args.regime == "rotating" else replace(cfg, omega=0.0)
    values, _ = eigh_stack(_rotating_hamiltonian(rotating, thetas))
    # Energy tables need no eigenvectors, so rows are matched by sort order
    # of the closed forms; at band crossings the tied values are equal and
    # the assignment is immaterial.
    numeric = np.take_along_axis(values, band_order(closed), axis=-1)
    deviation = float(np.max(np.abs(numeric - closed)))
    columns = np.column_stack([thetas, numeric, closed]).T.tolist()
    header = ["theta", *(f"{stem}_{lab}" for stem in ("num", "closed") for lab in LABELS)]
    return (header, columns), {"max_num_closed_deviation": deviation}


def cmd_berry(args) -> tuple[tuple, dict]:
    """Geometric-phase curves vs theta: numerical route, closed form, difference,
    from one labelled solve of the sweep, each row a cell of ``geometry._labelled``.
    A row names its first failing labelling check, or the last band whose closed form failed."""
    thetas = np.linspace(args.theta_min, args.theta_max, args.theta_steps)
    cfg = _config_from(args)
    adiabatic = args.regime == "adiabatic"
    rotating = replace(cfg, omega=0.0) if adiabatic else cfg  # adiabatic: a drive at rest
    h, table = _rotating_hamiltonian(rotating, thetas), "adiabatic" if adiabatic else "rotating"
    vectors, _, residual, label_codes = geometry._labelled(cfg, table, h, thetas, 1)
    if np.all(np.isnan(residual)):  # no row has finite closed energies: refuse once
        _closed_energy_table(cfg, table, thetas)
    closed, codes = geometry._closed_phases(args.regime, *_sector_roots(cfg, args.regime, thetas))
    # error names by code, of a band's closed form or, in every band, of its row's labelling
    names = [None, "DegenerateGap", "NonConverged", "AmbiguousMatch"]
    codes = np.where(label_codes[:, None] > 0, label_codes[:, None], codes)
    # the solid angle 2 pi <Sz_total>; a loop also carries U(2 pi) = -1, a cyclic state does not
    sz = geometry._sz_total(vectors.swapaxes(1, 2))
    numeric = geometry.fold_phase(2.0 * math.pi * sz - (math.pi if adiabatic else 0.0))
    diff = geometry.circular_distance(numeric, closed)
    cells = np.stack([numeric, closed, diff], axis=-1).astype(object)
    cells[codes != 0] = None
    # a row's code is its last failing band's (argmax finds none as column 3, code 0)
    row_codes = codes[np.arange(len(codes)), 3 - np.argmax(codes[:, ::-1] != 0, axis=-1)]
    header = ["theta", *(f"{s}_{lab}" for lab in LABELS for s in ("num", "closed", "circdiff"))]
    errors = np.array(names, dtype=object)[row_codes].tolist()
    columns = [thetas.tolist(), *cells.reshape(len(thetas), -1).T.tolist(), errors]
    worst = float(np.max(diff, where=codes == 0, initial=0.0))
    failed = int(np.count_nonzero(row_codes))
    return (header + ["error"], columns), {"max_circular_difference": worst,
                                           "failed_rows": failed}


def cmd_chern(args) -> tuple[tuple, dict]:
    """Per-band Chern numbers by closed form and by the lattice method."""
    cfg = _config_from(args)
    report = geometry.chern_lattice(
        cfg, n_theta=args.n_theta, n_phi=args.n_phi, regime=args.regime
    )
    columns = [
        [str(lab) for lab in LABELS],
        [geometry.chern_closed(cfg, lab, args.regime) for lab in LABELS],
        [report.c1[lab] for lab in LABELS],
    ]
    header = ["label", "closed", "lattice"]
    diagnostics = {
        "min_gap": report.min_gap,
        "n_theta": args.n_theta,
        "n_phi": args.n_phi,
        "band_sum": report.band_sum(),
    }
    return (header, columns), diagnostics


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
        "rk4_error_estimate": _rk4_error_estimate(cfg, breakdown.period, args.rk4_steps),
        "rk4_reunitarization_norm": drift,
        "floquet_residual": system.floquet_residual(label),
        "dynamical_quadrature_circdiff": geometry.circular_distance(
            geometry.fold_phase(quad), breakdown.dynamical
        ),
    }
    return results, diagnostics


def cmd_phase_diagram(args) -> tuple[tuple, dict]:
    """Classified (B, Omega) grid for the phase diagram, rendered from the scan's columns."""
    b, omega, codes, distances, errors = phasescan._scan_columns(
        (args.b_min, args.b_max),
        (args.omega_min, args.omega_max),
        args.t_lr,
        args.phi,
        args.n_b,
        args.n_omega,
        args.method,
    )
    # the class, c_plus, c_minus and error of each code
    outcomes = [(p.render(), p.c_plus, p.c_minus, None) for p in phasescan._PHASES]
    outcomes += [(None, None, None, name) for name in errors]
    classes, c_plus, c_minus, names = (_Coded(codes, values) for values in zip(*outcomes))
    # a cell holds either a class or the name of the error that replaced it
    counts = np.bincount(codes, minlength=len(outcomes)).tolist()
    class_counts = {cls or err: n for (cls, _, _, err), n in zip(outcomes, counts) if n}
    columns = [b, omega, classes, c_plus, c_minus, distances, names]
    header = ["b", "omega", "class", "c_plus", "c_minus", "boundary_distance", "error"]
    return (header, columns), {"class_counts": dict(sorted(class_counts.items()))}


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that ends each usage error with a JSON error record.

    An argument starting '-' and then a digit, a point or a pi literal
    ('-1e-5', '-.5', '-pi/2') is a value, not a flag.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|[\d.]*\*?pi)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, _error_record("ValidationError", message) + "\n")


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
    parser = _Parser(
        prog="drivenspin",
        description="Geometric phases and topological invariants of a driven "
        "two-site spin qubit",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--threads", type=int, default=1, help="accepted, no effect (>= 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="energy curves vs theta")
    _add_drive_flags(p)
    p.add_argument("--regime", choices=("adiabatic", "rotating"), default="adiabatic")
    p.add_argument("--theta-steps", dest="theta_steps", type=int, default=200)

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

    p = sub.add_parser("chern", help="per-band Chern numbers, both methods")
    _add_drive_flags(p)
    p.add_argument(
        "--regime", choices=("adiabatic", "nonadiabatic"), default="adiabatic"
    )
    p.add_argument("--n-theta", dest="n_theta", type=int, default=100)
    p.add_argument("--n-phi", dest="n_phi", type=int, default=100)

    p = sub.add_parser("evolve", help="one-period phase extraction")
    _add_drive_flags(p)
    p.add_argument("--theta", type=parse_angle, required=True, help="polar angle in [0, pi]")
    p.add_argument("--m1", type=int, choices=(-1, 1), default=1)
    p.add_argument("--m2", type=int, choices=(-1, 1), default=1)
    p.add_argument("--rk4-steps", dest="rk4_steps", type=int, default=2000)

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
    return parser


def _error_record(name: str, message: str) -> str:
    return _json_dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "error": {"name": name, "message": message},
        }
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built by the first; ``build_parser``
    still returns a new parser, which its caller may change, and import builds none."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code; its handler ``cmd_<command>``
    is looked up at call time, so a rebound handler is the one that runs."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        for flag, least in (("--threads", 1), ("--theta-steps", 1), ("--rk4-steps", 1000)):
            value = getattr(args, flag[2:].replace("-", "_"), least)
            if value < least:
                parser.error(f"argument {flag}: must be at least {least}, got {value}")
        for flags, keys, unit, when in _GRIDS:
            applies = all(hasattr(args, k) for k in keys)
            if applies and (when is None or getattr(args, when[0], None) == when[1]):
                points = unit * math.prod(getattr(args, k) for k in keys)
                if points > MAX_GRID_POINTS:
                    parser.error(
                        f"argument {flags}: {points} grid points exceed the cap of "
                        f"{MAX_GRID_POINTS}"
                    )
    except SystemExit as exc:  # argparse validation or --help
        return int(exc.code or 0)
    try:
        for flag in ("--theta-min", "--theta-max"):
            value = getattr(args, flag[2:].replace("-", "_"), 0.0)
            if not 0.0 <= value <= math.pi:  # nan included
                raise ValidationError(f"argument {flag}: must lie in [0, pi], got {value}")
        _emit(args, *globals()["cmd_" + args.command.replace("-", "_")](args))
    except DrivenSpinError as exc:
        print(_error_record(type(exc).__name__, str(exc)), file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(_error_record("ValidationError", str(exc)), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
