"""Output checker for benchmark jobs, independent of the program.

Every reference value is computed here from the model's closed forms and
from a Hamiltonian built by this file, never by importing ``drivenspin``.
Tolerances are those of the acceptance suite: spectra 1e-10 B, phases 1e-5
(circular), propagators 1e-8, Chern numbers and classes exactly.

``check(job, outcome)`` returns a list of problems; an empty list means the
job's outcome is the expected one.
"""

from __future__ import annotations

import json
import math

import numpy as np

SPECTRUM_TOL = 1e-10  # times b
PHASE_TOL = 1e-5  # circular distance, radians
EVOLVE_PHASE_TOL = 1e-6  # pi-offset identity of the acceptance suite
PROPAGATOR_TOL = 1e-8
# Lattice cells closer than this to a transition line may differ from the
# closed class or fail; beyond it they must match (acceptance criterion 4).
LATTICE_MARGIN = 0.05
# Levels closer than MIN_GAP * b on a job's theta grid may be refused as
# DegenerateGap (the program's own threshold is 1e-6 * b).
MIN_GAP = 1e-4
LATTICE_THETAS = np.linspace(0.0, math.pi, 100)  # rows of classify_point's lattice
# Closed-method cells within this distance of a line may report OnTransition.
CLOSED_EDGE = 1e-7

LABELS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
SZ_DIAG = np.array([0.5, -0.5, 0.5, -0.5])


def fold(x: float) -> float:
    y = (x + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if y == -math.pi else y


def circ(a: float, b: float) -> float:
    return abs(fold(a - b))


class Point:
    """One parameter point; ``anti`` is True for phi = pi, False for phi = 0."""

    def __init__(self, b, t_lr=0.0, omega=0.0, anti=False, theta=0.0):
        self.b, self.t_lr, self.omega = float(b), float(t_lr), float(omega)
        self.anti, self.theta = bool(anti), float(theta)

    @property
    def lam(self):
        return 2.0 * self.t_lr / self.b

    @property
    def mu(self):
        return self.omega / self.b

    def delta(self, m2):
        return (self.omega + 2.0 * m2 * self.t_lr) / self.b


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def energies(p: Point, regime: str, thetas) -> np.ndarray:
    """Closed-form band energies, shape thetas.shape + (4,), LABELS order."""
    c = np.cos(np.asarray(thetas, dtype=float))
    cols = []
    for m1, m2 in LABELS:
        if regime == "adiabatic":
            if p.anti:
                cols.append(-0.5 * m1 * p.b * np.sqrt(1 + p.lam**2 - 2 * m2 * p.lam * c))
            else:
                cols.append(np.broadcast_to(-0.5 * p.b * (m1 + m2 * p.lam), c.shape))
        elif p.anti:
            d = p.delta(m2)
            cols.append(-0.5 * m1 * p.b * np.sqrt(1 + d * d - 2 * d * c))
        else:
            root = np.sqrt(1 + p.mu**2 - 2 * p.mu * c)
            cols.append(-0.5 * m1 * p.b * root - m2 * p.t_lr)
    return np.stack(cols, axis=-1)


def min_gap(p: Point, regime: str, thetas) -> float:
    """Smallest separation of adjacent closed-form levels over ``thetas``."""
    return float(np.min(np.diff(np.sort(energies(p, regime, thetas), axis=-1), axis=-1)))


def berry_closed(p: Point, theta: float, m1: int, m2: int) -> float:
    c = math.cos(theta)
    if not p.anti:
        return fold(math.pi * (1.0 - m1 * c))
    f = math.sqrt(1 + p.lam**2 - 2 * m2 * p.lam * c)
    return fold(math.pi * (m1 * (p.lam * m2 - c) + f) / f)


def sz_closed(p: Point, m1: int, m2: int) -> float:
    """<Sz_total> of the cyclic state; 2 pi times it is the AA phase."""
    x = p.delta(m2) if p.anti else p.mu
    c = math.cos(p.theta)
    return 0.5 * m1 * (x - c) / math.sqrt(1 + x * x - 2 * x * c)


def aa_closed(p: Point, m1: int, m2: int) -> float:
    return fold(2.0 * math.pi * sz_closed(p, m1, m2))


def chern_closed(p: Point, regime: str, m1: int, m2: int) -> int:
    if regime == "adiabatic":
        return m1 if (not p.anti or p.lam < 1.0) else 0
    x = abs(p.delta(m2)) if p.anti else p.mu
    return m1 if x < 1.0 else 0


def class_closed(p: Point) -> str:
    if p.anti:
        plus, minus = (abs(p.delta(m2)) < 1.0 for m2 in (1, -1))
    else:
        plus = minus = p.mu < 1.0
    return f"({'Z' if plus else '0'},{'Z' if minus else '0'})"


def transition_distance(p: Point) -> float:
    """Distance of the cyclic invariants from their nearest transition."""
    if p.anti:
        return min(abs(abs(p.delta(m2)) - 1.0) for m2 in (1, -1))
    return abs(p.mu - 1.0)


def rotating_hamiltonian(p: Point) -> np.ndarray:
    """Co-rotating-frame Hamiltonian on |L up>, |L dn>, |R up>, |R dn>."""
    h = np.zeros((4, 4), dtype=complex)
    dz = 0.5 * p.b * math.cos(p.theta)
    flip = 0.5 * p.b * math.sin(p.theta)
    for k, phase in ((0, 0.0), (2, -math.pi if p.anti else 0.0)):
        h[k, k], h[k + 1, k + 1] = dz, -dz
        h[k, k + 1] = flip * np.exp(-1j * phase)
        h[k + 1, k] = np.conj(h[k, k + 1])
    h[0, 2] = h[2, 0] = h[1, 3] = h[3, 1] = p.t_lr
    return h - np.diag(p.omega * SZ_DIAG)


def propagator(p: Point, t: float) -> np.ndarray:
    """Exact U(t) = exp(-i omega t Sz) exp(-i H_rot t), by LAPACK."""
    w, v = np.linalg.eigh(rotating_hamiltonian(p))
    u_rot = (v * np.exp(-1j * w * t)) @ v.conj().T
    return np.exp(-1j * p.omega * t * SZ_DIAG)[:, None] * u_rot


# ---------------------------------------------------------------------------
# document checks
# ---------------------------------------------------------------------------


def _table(text: str, fmt: str) -> tuple[dict, list[str], list[list]]:
    """(document, columns, rows) of a JSON or CSV table document."""
    if fmt == "json":
        doc = json.loads(text)
        return doc, doc["results"]["columns"], doc["results"]["rows"]
    lines = text.rstrip("\n").split("\n")
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        # a class literal such as "(0,Z)" carries an unquoted comma
        for i, f in enumerate(fields):
            if f.startswith("(") and i + 1 < len(fields):
                fields[i : i + 2] = [f + "," + fields[i + 1]]
                break
        rows.append([_csv_value(f) for f in fields])
    return {}, columns, rows


def _csv_value(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _check_spectrum(job, doc_text, problems):
    p = job.point
    doc, cols, rows = _table(doc_text, "json")
    rows = np.array(rows, dtype=float)
    if rows.shape != (job.size, 9):
        problems.append(f"spectrum table shape {rows.shape}")
        return
    own = energies(p, "adiabatic", rows[:, 0])
    for part in (rows[:, 1:5], rows[:, 5:9]):
        dev = float(np.max(np.abs(part - own)))
        if not dev <= SPECTRUM_TOL * p.b:
            problems.append(f"spectrum deviates {dev:.2e} from closed form")


def _check_berry(job, doc_text, problems):
    p = job.point
    doc, cols, rows = _table(doc_text, "json")
    if doc["diagnostics"]["failed_rows"] != 0:
        problems.append(f"failed_rows = {doc['diagnostics']['failed_rows']}")
    if len(rows) != job.size:
        problems.append(f"berry has {len(rows)} rows")
    for row in rows:
        theta = row[0]
        for k, (m1, m2) in enumerate(LABELS):
            numeric = row[1 + 3 * k]
            if numeric is None:
                problems.append(f"missing phase at theta={theta}")
                return
            if job.regime == "adiabatic":
                ref = berry_closed(p, theta, m1, m2)
            else:
                ref = aa_closed(Point(p.b, p.t_lr, p.omega, p.anti, theta), m1, m2)
            if not circ(numeric, ref) <= PHASE_TOL:
                problems.append(
                    f"phase of {(m1, m2)} at theta={theta} off by {circ(numeric, ref):.2e}"
                )
                return


def _check_chern(job, doc_text, problems):
    doc, cols, rows = _table(doc_text, "json")
    if doc["diagnostics"]["band_sum"] != 0:
        problems.append(f"band_sum = {doc['diagnostics']['band_sum']}")
    if len(rows) != 4:
        problems.append(f"chern has {len(rows)} rows")
    for (m1, m2), (_, closed, lattice) in zip(LABELS, rows):
        own = chern_closed(job.point, job.regime, m1, m2)
        if not (closed == lattice == own):
            problems.append(
                f"Chern of {(m1, m2)}: closed {closed}, lattice {lattice}, expected {own}"
            )


def _check_evolve(job, doc_text, problems):
    p = job.point
    m1, m2 = job.label
    doc = json.loads(doc_text)
    res, diag = doc["results"], doc["diagnostics"]
    period = 2.0 * math.pi / p.omega
    energy = energies(p, "rotating", p.theta)[LABELS.index((m1, m2))]
    dynamical = fold(-period * (energy + p.omega * sz_closed(p, m1, m2)))
    geometric = fold(aa_closed(p, m1, m2) + math.pi)
    if abs(res["period"] - period) > 1e-12 * period:
        problems.append(f"period {res['period']} != {period}")
    for name, ref in (("dynamical", dynamical), ("geometric", geometric)):
        if not circ(res[name], ref) <= EVOLVE_PHASE_TOL:
            problems.append(f"{name} phase off by {circ(res[name], ref):.2e}")
    if not circ(res["total"], dynamical + geometric) <= EVOLVE_PHASE_TOL:
        problems.append("total != dynamical + geometric")
    if not diag["rk4_deviation"] <= job.rk4_tol:
        problems.append(f"rk4_deviation {diag['rk4_deviation']:.2e} > {job.rk4_tol:.0e}")


def _check_diagram(job, doc_text, problems):
    doc, cols, rows = _table(doc_text, job.fmt)
    if len(rows) != job.size:
        problems.append(f"diagram has {len(rows)} cells, expected {job.size}")
    bad = 0
    for row in rows:
        b, omega, cls, err = row[0], row[1], row[2], row[6]
        cell = Point(b, job.point.t_lr, omega, job.point.anti)
        if cls == "(Z,0)":
            problems.append(f"unreachable class (Z,0) at b={b}, omega={omega}")
            return
        edge = transition_distance(cell)
        if job.method == "lattice" and (
            edge < LATTICE_MARGIN
            or min_gap(cell, "rotating", LATTICE_THETAS) < MIN_GAP * cell.b
        ):
            continue
        if job.method == "closed" and edge < CLOSED_EDGE and err == "OnTransition":
            continue
        if cls != class_closed(cell):
            bad += 1
    if bad:
        problems.append(f"{bad} diagram cells differ from the closed class")


_CLI_CHECKS = {
    "spectrum": _check_spectrum,
    "berry": _check_berry,
    "chern": _check_chern,
    "evolve": _check_evolve,
    "phase-diagram": _check_diagram,
}


def check(job, outcome) -> list[str]:
    """Problems with one job's outcome; empty when it is the expected one.

    ``outcome`` is ``(exit_code, stdout, stderr)`` for CLI jobs and
    ``(error_name, value)`` for library jobs.
    """
    problems: list[str] = []
    try:
        if job.command is not None:
            code, out, err = outcome
            if job.expect_error:
                name = json.loads(err)["error"]["name"] if err else None
                if code != 3 or name not in job.expect_error:
                    problems.append(f"expected exit 3 with {job.expect_error}, got {code} {name}")
            elif code != 0:
                problems.append(f"exit {code}: {err.strip()[:200]}")
            else:
                _CLI_CHECKS[job.command](job, out, problems)
        else:
            error, value = outcome
            if error is not None:
                problems.append(f"library call raised {error}")
            else:
                _LIB_CHECKS[job.kind](job, value, problems)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def _check_propagators(job, value, problems):
    u_rk4, u_exact = value
    own = propagator(job.point, 2.0 * math.pi / job.point.omega)
    for name, u in (("rk4", u_rk4), ("exact", u_exact)):
        dev = float(np.max(np.abs(u - own)))
        if not dev <= PROPAGATOR_TOL:
            problems.append(f"{name} propagator deviates {dev:.2e}")


def _check_classes(job, value, problems):
    bad = sum(got != class_closed(p) for p, got in zip(job.points, value))
    if bad or len(value) != len(job.points):
        problems.append(f"{bad} of {len(job.points)} classified points differ")


_LIB_CHECKS = {"propagate_library": _check_propagators, "classify_library": _check_classes}
