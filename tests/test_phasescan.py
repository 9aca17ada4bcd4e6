import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drivenspin import (
    DriveConfig,
    OnTransition,
    StateLabel,
    UnsupportedPhase,
    chern_closed,
    classify_point,
    scan_diagram,
)
from drivenspin.geometry import TRANSITION_TOL
from drivenspin.phasescan import PhaseClass


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

    def test_workers_do_not_change_output(self):
        kwargs = dict(t_lr=1.0, phi=math.pi, n_b=8, n_omega=8)
        a = scan_diagram((0, 6), (0, 6), **kwargs)
        b = scan_diagram((0, 6), (0, 6), n_workers=4, **kwargs)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_diagram((0, 6), (0, 6), 1.0, math.pi, 1, 10)
        with pytest.raises(ValueError):
            scan_diagram((6, 0), (0, 6), 1.0, math.pi, 10, 10)
        with pytest.raises(UnsupportedPhase):
            scan_diagram((0, 6), (0, 6), 1.0, 0.3, 4, 4)

    @pytest.mark.parametrize("n_workers", [0, -3])
    def test_workers_below_one_rejected(self, n_workers):
        with pytest.raises(ValueError):
            scan_diagram((0, 6), (0, 6), 1.0, math.pi, 4, 4, "closed", n_workers)


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
