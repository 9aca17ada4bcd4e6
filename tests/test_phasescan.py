import json
import math
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drivenspin import (
    DriveConfig,
    DrivenSpinError,
    OnTransition,
    StateLabel,
    UnsupportedPhase,
    chern_closed,
    classify_point,
    scan_diagram,
)
from drivenspin import geometry, phasescan
from drivenspin.cli import main
from drivenspin.geometry import TRANSITION_TOL
from drivenspin.phasescan import PhaseClass, PhaseDiagramCell
from test_geometry import _single_pass_chern


def point(b, omega, t_lr=1.0, phi=math.pi):
    return DriveConfig(b=b, theta=0.0, phi_l=0.0, phi_r=-phi, omega=omega, t_lr=t_lr)


class TestPhaseClass:
    def test_render(self):
        assert PhaseClass(0, 0).render() == "(0,0)"
        assert PhaseClass(1, 1).render() == "(Z,Z)"
        assert PhaseClass(0, 1).render() == "(0,Z)"
        assert PhaseClass(1, 0).render() == "(Z,0)"

    def test_validates(self):
        with pytest.raises(ValueError):
            PhaseClass(2, 0)


class TestClassifyPoint:
    def test_half_topological(self):
        # Delta_+ = 1.25 (trivial), Delta_- = -0.75 (topological)
        assert classify_point(point(b=2.0, omega=0.5)) == PhaseClass(0, 1)

    def test_fully_topological(self):
        # Delta_+ = 0.625, Delta_- = -0.375
        assert classify_point(point(b=4.0, omega=0.5)) == PhaseClass(1, 1)

    def test_adiabatic_limit_trivial(self):
        # omega=0, lam=1.2: both sectors trivial, matching the adiabatic result
        cfg = point(b=2.0, omega=0.0, t_lr=1.2)
        assert classify_point(cfg) == PhaseClass(0, 0)

    def test_on_transition(self):
        with pytest.raises(OnTransition):
            classify_point(point(b=2.0, omega=0.0, t_lr=1.0))
        with pytest.raises(OnTransition):
            classify_point(point(b=2.0, omega=2.0, t_lr=0.3, phi=0.0))

    def test_unsupported_phase(self):
        with pytest.raises(UnsupportedPhase):
            classify_point(point(b=2.0, omega=0.5, phi=0.4))

    def test_lattice_agrees_with_closed(self):
        for b, omega in ((2.0, 0.5), (4.0, 0.5), (1.0, 2.5), (2.0, 1.5)):
            cfg = point(b=b, omega=omega)
            assert classify_point(cfg, "lattice") == classify_point(cfg, "closed")

    def test_in_phase_branch(self):
        assert classify_point(point(b=2.0, omega=0.5, t_lr=0.4, phi=0.0)) == PhaseClass(1, 1)
        assert classify_point(point(b=2.0, omega=3.0, t_lr=0.4, phi=0.0)) == PhaseClass(0, 0)


def test_cell_is_a_named_tuple():
    cell = PhaseDiagramCell(2.0, 0.5, PhaseClass(0, 1), 0.25)
    assert PhaseDiagramCell._fields == ("b", "omega", "phase", "boundary_distance", "error")
    assert cell == (2.0, 0.5, PhaseClass(0, 1), 0.25, None)
    assert cell._replace(phase=None, error="OnTransition") == (
        2.0, 0.5, None, 0.25, "OnTransition"
    )


class TestScanDiagram:
    def test_all_accessible_phases_present(self):
        cells = scan_diagram((0, 6), (0, 6), t_lr=1.0, phi=math.pi, n_b=30, n_omega=30)
        assert len(cells) == 900
        seen = {c.phase.render() for c in cells if c.phase is not None}
        assert {"(0,0)", "(Z,Z)", "(0,Z)"} <= seen
        assert "(Z,0)" not in seen

    def test_row_major_order(self):
        cells = scan_diagram((0, 4), (0, 4), t_lr=1.0, phi=math.pi, n_b=4, n_omega=3)
        bs = [c.b for c in cells]
        ws = [c.omega for c in cells]
        assert bs == sorted(bs)
        assert ws[:3] == sorted(ws[:3]) and ws[:3] == ws[3:6]

    def test_boundary_cells_marked_not_raised(self):
        # cell centers (0.75, 2.75) and (1.25, 3.25) sit exactly on the
        # omega - 2 t_lr = b transition line
        cells = scan_diagram((0.5, 1.5), (2.5, 3.5), 1.0, math.pi, 2, 2)
        tagged = [c for c in cells if c.error == "OnTransition"]
        assert len(tagged) == 2
        for cell in tagged:
            assert cell.phase is None
            assert cell.boundary_distance == pytest.approx(0.0, abs=1e-12)

    def test_boundary_lines_location(self):
        # transitions of the anti-phase diagram sit on |omega +- 2 t_lr| = b
        cells = scan_diagram((0, 6), (0, 6), t_lr=1.0, phi=math.pi, n_b=40, n_omega=40)
        for cell in cells:
            dist = min(
                abs(abs(cell.omega + 2.0) - cell.b), abs(abs(cell.omega - 2.0) - cell.b)
            )
            assert cell.boundary_distance == pytest.approx(dist / cell.b, abs=1e-12)

    def test_small_tunneling_reduces_to_in_phase_diagram(self):
        # t_lr -> 0: anti-phase classification approaches the in-phase one,
        # whose only boundary is omega = b
        cells = scan_diagram((0.2, 5), (0, 5), t_lr=1e-12, phi=math.pi, n_b=12, n_omega=12)
        for cell in cells:
            expected = 1 if cell.omega < cell.b else 0
            assert cell.phase == PhaseClass(expected, expected)

    def test_adiabatic_column(self):
        # the omega = 0 column matches the adiabatic step function in lam
        cells = scan_diagram((0.3, 6), (0, 0), t_lr=1.0, phi=math.pi, n_b=25, n_omega=2)
        for cell in cells:
            lam = 2.0 / cell.b
            expected = 1 if lam < 1.0 else 0
            assert cell.phase == PhaseClass(expected, expected)

    def test_inaccessible_class_never_appears(self):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            cfg = point(
                b=rng.uniform(1e-3, 10.0),
                omega=rng.uniform(0.0, 10.0),
                t_lr=rng.uniform(1e-6, 5.0),
            )
            try:
                phase = classify_point(cfg)
            except OnTransition:
                continue
            assert phase != PhaseClass(1, 0)

    def test_half_topological_band_width(self):
        # at fixed b the (0,Z) window in omega is (b - 2 t_lr, b + 2 t_lr)
        # for 2 t_lr < b, so its width is 4 t_lr and shrinks with tunneling
        for b, t_lr in ((2.0, 0.2), (2.0, 0.5), (3.0, 0.8)):
            omegas = np.linspace(0.0, b + 2 * t_lr + 1.0, 4001)
            flags = []
            for omega in omegas:
                try:
                    flags.append(
                        classify_point(point(b=b, omega=float(omega), t_lr=t_lr))
                        == PhaseClass(0, 1)
                    )
                except OnTransition:
                    flags.append(False)
            width = np.sum(flags) * (omegas[1] - omegas[0])
            assert width == pytest.approx(4 * t_lr, abs=2 * (omegas[1] - omegas[0]))

    def test_every_cell_runs_on_the_calling_thread(self, monkeypatch):
        """The lattice scan solves each block of cells in one eigensolve on the
        calling thread, and names a flagged cell's error from that block: no
        cell is classified again on its own."""
        calls = []

        def recording(module, name):
            fn = getattr(module, name)

            def wrapped(*args, **kwargs):
                work = np.shape(args[0]) if name == "eigh_stack" else args[:2]
                calls.append((name, threading.get_ident(), work))
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        for name in ("_scan_cell", "classify_point", "chern_lattice"):
            recording(phasescan, name)
        recording(geometry, "eigh_stack")
        me = threading.get_ident()
        closed = scan_diagram((0, 6), (0, 6), 1.0, math.pi, 4, 4)
        assert calls == []  # the closed scan is one array pass, no per-cell calls
        kwargs = dict(t_lr=1.0, phi=math.pi, n_b=2, n_omega=2)
        lattice = scan_diagram((1, 4), (0.5, 4), method="lattice", **kwargs)
        assert calls == [("eigh_stack", me, (4, 100, 4, 4))]
        assert len(closed) == 16 and len(lattice) == 4
        # the lattice route classifies every cell as the closed route does
        assert [c.phase for c in lattice] == [
            c.phase for c in scan_diagram((1, 4), (0.5, 4), **kwargs)
        ]
        assert all(c.phase is not None for c in lattice)
        # the default 10x10 cells are two blocks; the 10 cells on b = omega
        # fail as DegenerateGap, named from their block's solve
        blocks = [("eigh_stack", me, (64, 100, 4, 4)), ("eigh_stack", me, (36, 100, 4, 4))]
        calls.clear()
        cells = scan_diagram((0, 6), (0, 6), 1.0, math.pi, 10, 10, method="lattice")
        refused = [(c.b, c.omega) for c in cells if c.phase is None]
        assert len(refused) == 10 and refused == [(c.b, c.omega) for c in cells if c.b == c.omega]
        assert {c.error for c in cells if c.phase is None} == {"DegenerateGap"}
        assert calls == blocks
        # t_lr = 0 decouples the sites: every cell fails, and none is solved again
        calls.clear()
        cells = scan_diagram((0, 6), (0, 6), 0.0, math.pi, 10, 10, method="lattice")
        assert {(c.phase, c.error) for c in cells} == {(None, "DegenerateGap")}
        assert calls == blocks

    def test_lattice_memory_does_not_grow_with_cells(self):
        def traced_peak(n):
            tracemalloc.start()
            try:
                scan_diagram((0.5, 6), (0, 6), 1.0, math.pi, n, n, method="lattice")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 8x8 cells are one full block (7.8 MiB), 6x6 part of one and 12x12
        # three; one eigensolve of all 144 cells would peak near 17.6 MiB
        assert phasescan._LATTICE_BLOCK == 64
        assert traced_peak(12) <= traced_peak(6) + traced_peak(8)

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_diagram((0, 6), (0, 6), 1.0, math.pi, 1, 10)
        with pytest.raises(ValueError):
            scan_diagram((6, 0), (0, 6), 1.0, math.pi, 10, 10)
        with pytest.raises(UnsupportedPhase):
            scan_diagram((0, 6), (0, 6), 1.0, 0.3, 4, 4)

    @pytest.mark.parametrize(
        "n_b,n_omega,message",
        [
            (2.5, 2, "n_b must be an integer, got 2.5"),
            (3.0, 3, "n_b must be an integer, got 3.0"),
            (2, np.float64(4.0), "n_omega must be an integer, got np.float64(4.0)"),
            (2, "3", "n_omega must be an integer, got '3'"),
            (None, 2.5, "n_b must be an integer, got None"),
        ],
    )
    def test_non_integer_counts_refused(self, n_b, n_omega, message):
        """A float count would centre cells on a grid of ceil(n) rows whose last
        centre lies on the range's upper edge; it is refused by name."""
        for method in ("closed", "lattice"):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                scan_diagram((0, 6), (0, 6), 1.0, math.pi, n_b, n_omega, method=method)
        assert len(scan_diagram((0, 6), (0, 6), 1.0, math.pi, np.int64(3), 2)) == 6

    @pytest.mark.parametrize(
        "b_range,omega_range,message",
        [
            ((0, 0), (0, 6), "b must be > 0, got 0.0"),
            ((0, 0), (0, 1.7e308), "b must be > 0, got 0.0"),
            ((0, 6), (0, math.inf), "omega must be finite, got inf"),
            ((0, math.inf), (0, 6), "b must be finite, got inf"),
            ((0, 0), (0, math.inf), "omega must be finite, got inf"),
        ],
    )
    def test_invalid_cell_raises_as_the_first_one(self, b_range, omega_range, message):
        """The closed scan raises the ValueError of the first invalid cell in
        row-major order, which the lattice route meets cell by cell, and a
        non-finite range warns nothing."""
        for method in ("closed", "lattice"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    scan_diagram(b_range, omega_range, 1.0, math.pi, 3, 3, method=method)

    @pytest.mark.parametrize(
        "b_range,omega_range",
        [((0, 6), (0, 1.7e308)), ((0, 1.7e308), (0, 6)), ((0, 1.7e308), (0, 1.7e308))],
    )
    def test_overflowing_range_has_finite_centres(self, b_range, omega_range):
        """Where (i + 0.5) (hi - lo) overflows, the centre divides the width
        first; every other centre is the plain formula's, bit for bit.  Both
        methods complete without a warning."""
        centres = []
        for lo, hi in (b_range, omega_range):
            plain = [lo + (i + 0.5) * (hi - lo) / 3 for i in range(3)]
            centres.append([c if math.isfinite(c) else lo + (i + 0.5) * ((hi - lo) / 3)
                            for i, c in enumerate(plain)])
        assert all(map(math.isfinite, centres[0] + centres[1]))
        for method in ("closed", "lattice"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cells = scan_diagram(b_range, omega_range, 1.0, math.pi, 3, 3, method=method)
            assert [(c.b, c.omega) for c in cells] == [
                (b, w) for b in centres[0] for w in centres[1]
            ]

    def test_overflowing_spectrum_is_named_without_warning(self):
        """Spectra that overflow to inf - inf are labelled without a numpy
        warning; each cell records its error name."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = scan_diagram((1, 1.7976e308), (1, 1.7976e308), 1.79e308, math.pi, 2, 2,
                                 method="lattice")
        assert [c.error for c in cells] == [
            "DegenerateGap", "NonConverged", "NonConverged", "DegenerateGap"
        ]

    def test_overflowing_cell_exits_nonconverged_without_warning(self, capsys):
        argv = "phase-diagram --b-min 1e-14 --b-max 1e-13 --omega-max 1e+295"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and caught == []
        assert json.loads(captured.err)["error"]["name"] == "NonConverged"


@st.composite
def drive_points(draw):
    """(b, omega, t_lr, phi) over criterion 5's ranges, phi in {0, pi}.

    Half the draws move omega so that one sector parameter sits at
    |x| = 1 + k TRANSITION_TOL, straddling the transition tolerance.
    """
    b = draw(st.floats(1e-3, 8.0))
    t_lr = draw(st.floats(1e-6, 4.0))
    phi = draw(st.sampled_from([0.0, math.pi]))
    omega = draw(st.floats(0.0, 8.0))
    if draw(st.booleans()):
        x = 1.0 + draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])) * TRANSITION_TOL
        if phi == 0.0:
            omega = b * x  # mu = x
        else:
            m2, sign = draw(st.sampled_from([(1, 1), (-1, 1), (-1, -1)]))
            omega = sign * b * x - 2.0 * m2 * t_lr  # Delta_m2 = sign * x
            assume(omega >= 0.0)
    return b, omega, t_lr, phi


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drive_points())
def test_closed_rules_agree(params):
    """classify_point, chern_closed and the scan's boundary distance share one rule."""
    b, omega, t_lr, phi = params
    cfg = point(b, omega, t_lr=t_lr, phi=phi)
    try:
        phase = classify_point(cfg)
    except OnTransition:
        phase = None
    try:
        chern = [abs(chern_closed(cfg, StateLabel(1, m2), "nonadiabatic")) for m2 in (1, -1)]
    except OnTransition:
        chern = None
    assert (phase is None) == (chern is None)
    if phase is not None:
        assert [phase.c_plus, phase.c_minus] == chern
    for cell in scan_diagram((b, b), (omega, omega), t_lr, phi, 2, 2):
        assert (cell.b, cell.omega, cell.phase) == (b, omega, phase)
        assert (cell.error == "OnTransition") == (cell.boundary_distance <= TRANSITION_TOL)


@st.composite
def closed_grids(draw):
    """(b_range, omega_range, t_lr, phi, n_b, n_omega) of a closed scan.

    Half the draws shrink the B range to the one value that puts a sector
    parameter of a drawn omega cell at |x| = 1 + k TRANSITION_TOL, k in
    -2..2, as near as float rounding allows.
    """
    phi = draw(st.sampled_from([0.0, math.pi]))
    t_lr = draw(st.floats(0.0, 4.0))
    n_b, n_omega = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    w_lo = draw(st.floats(0.0, 8.0))
    omega_range = (w_lo, w_lo + draw(st.floats(0.0, 8.0)))
    b_lo = draw(st.floats(1e-3, 8.0))
    b_range = (b_lo, b_lo + draw(st.floats(0.0, 8.0)))
    if draw(st.booleans()):
        cells = scan_diagram((1.0, 1.0), omega_range, t_lr, phi, 2, n_omega)
        omega = cells[draw(st.integers(0, n_omega - 1))].omega
        m2 = 0 if phi == 0.0 else draw(st.sampled_from([1, -1]))
        x = 1.0 + draw(st.sampled_from([-2, -1, 0, 1, 2])) * TRANSITION_TOL
        b = abs(omega + 2.0 * m2 * t_lr) / x
        assume(b > 0.0)
        b_range = (b, b)
    return b_range, omega_range, t_lr, phi, n_b, n_omega


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(closed_grids())
def test_closed_scan_matches_the_scalar_route(grid):
    """Each cell of the array pass equals ``_scan_cell`` on its own, field for
    field with floats compared by ==, in row-major order."""
    b_range, omega_range, t_lr, phi, n_b, n_omega = grid
    cells = scan_diagram(b_range, omega_range, t_lr, phi, n_b, n_omega)
    assert len(cells) == n_b * n_omega
    for k, cell in enumerate(cells):
        row, col = divmod(k, n_omega)
        assert (cell.b, cell.omega) == (cells[row * n_omega].b, cells[col].omega)
        assert type(cell.b) is type(cell.omega) is type(cell.boundary_distance) is float
        assert cell == phasescan._scan_cell(cell.b, cell.omega, t_lr, phi, "closed")


@st.composite
def lattice_grids(draw):
    """(b_range, omega_range, t_lr, phi, n_b, n_omega) of a lattice scan.

    A quarter of the draws share one range and count for B and Omega, so
    cells sit on b = omega (the in-phase transition, and a crossing of the
    m2 sectors anti-phase); a quarter shift the Omega range by 2 t_lr, so
    cells sit on the anti-phase line omega - 2 t_lr = b; a quarter take the
    overflowing ranges of ``test_overflowing_range_has_finite_centres``.
    """
    phi = draw(st.sampled_from([0.0, math.pi]))
    t_lr = draw(st.sampled_from([0.0, 1.0])) if draw(st.booleans()) else draw(st.floats(0.0, 4.0))
    n_b, n_omega = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["free", "diagonal", "line", "edge"]))
    if kind == "edge":
        b_range, omega_range = draw(st.sampled_from(
            [((0, 6), (0, 1.7e308)), ((0, 1.7e308), (0, 6)), ((0, 1.7e308), (0, 1.7e308))]
        ))
        return b_range, omega_range, t_lr, phi, n_b, n_omega
    b_lo = draw(st.floats(0.0, 4.0))
    b_range = (b_lo, b_lo + draw(st.floats(1e-3, 8.0)))
    if kind == "free":
        w_lo = draw(st.floats(0.0, 8.0))
        return b_range, (w_lo, w_lo + draw(st.floats(0.0, 8.0))), t_lr, phi, n_b, n_omega
    shift = 2.0 * t_lr if kind == "line" else 0.0
    return b_range, (b_range[0] + shift, b_range[1] + shift), t_lr, phi, n_b, n_b


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lattice_grids())
def test_lattice_scan_matches_the_scalar_route(grid):
    """Each cell of the blocked lattice scan equals ``_scan_cell`` on its own,
    field for field with floats compared by ==, flagged cells included, and
    the scan raises no warning."""
    b_range, omega_range, t_lr, phi, n_b, n_omega = grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = scan_diagram(b_range, omega_range, t_lr, phi, n_b, n_omega, method="lattice")
    assert len(cells) == n_b * n_omega
    for cell in cells:
        assert type(cell.b) is type(cell.omega) is type(cell.boundary_distance) is float
        assert cell == phasescan._scan_cell(cell.b, cell.omega, t_lr, phi, "lattice")


def test_scan_records_a_flux_that_does_not_snap(monkeypatch):
    """A cell whose labelled strip has a flux off an integer records the
    NonConverged that ``chern_lattice`` raises for it, and no class: with a
    flux tolerance that no grid meets, no cell of a 3x3 scan is classified."""
    monkeypatch.setattr(geometry, "FLUX_TOL", -1.0)
    cells = scan_diagram((0.5, 3.0), (0.0, 4.0), 1.0, math.pi, 3, 3, method="lattice")
    assert {cell.error for cell in cells} == {"NonConverged"}
    for cell in cells:
        assert cell == phasescan._scan_cell(cell.b, cell.omega, 1.0, math.pi, "lattice")


def _full_grid_outcome(b, omega, t_lr, phi):
    """The phase, or the error name, of one cell by the uncarried route: the
    full 100x100 cyclic-state grid summed by ``lattice_flux``, snapped to
    integers within 1e-9 and classified by the invariant rule."""
    cfg = point(b, omega, t_lr=t_lr, phi=phi)
    n = phasescan.DEFAULT_LATTICE_RESOLUTION
    try:
        flux, _ = _single_pass_chern(cfg, n, n, "nonadiabatic")
    except DrivenSpinError as exc:
        return type(exc).__name__
    c1 = np.round(flux)
    if not np.all(np.abs(flux - c1) <= 1e-9):
        return "NonConverged"
    code = int(phasescan._lattice_codes(c1))
    return phasescan._PHASES[code] if code >= 0 else "DrivenSpinError"


def test_lattice_scan_matches_the_full_grid():
    """Each cell of the lattice scan has the phase, or the error name, of the
    full-grid route, which shares no strip, block or kernel with it.  Seeded
    3x3 diagrams on both branches: free ranges, t_lr = 0 (every gap closes),
    b = omega diagonals and t_lr / b ~ 1e8 (AmbiguousMatch)."""
    rng = np.random.default_rng(31)
    seen = set()
    for k in range(16):
        phi, kind = (0.0, math.pi)[k % 2], ("free", "decoupled", "diagonal", "strong")[k // 2 % 4]
        b_lo, w_lo = rng.uniform(0.05, 3.0), rng.uniform(0.0, 3.0)
        b_range = (b_lo, b_lo + rng.uniform(0.5, 4.0))
        omega_range = b_range if kind == "diagonal" else (w_lo, w_lo + rng.uniform(0.5, 4.0))
        t_lr = {"decoupled": 0.0, "strong": b_range[1] * rng.uniform(1e8, 1e9)}.get(
            kind, rng.uniform(0.0, 2.0))
        for cell in scan_diagram(b_range, omega_range, t_lr, phi, 3, 3, method="lattice"):
            outcome = cell.phase or cell.error
            assert outcome == _full_grid_outcome(cell.b, cell.omega, t_lr, phi), (kind, cell)
            seen.add(outcome if cell.error else "classified")
    assert seen == {"classified", "DegenerateGap", "AmbiguousMatch"}
