import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drivenspin import (
    AmbiguousMatch,
    DegenerateGap,
    DriveConfig,
    DrivenSpinError,
    LABELS,
    NonConverged,
    OnTransition,
    StateLabel,
    UnsupportedPhase,
    aa_phase_closed,
    build_hamiltonian,
    berry_phase_closed,
    berry_phase_wilson,
    chern_closed,
    chern_lattice,
    circular_distance,
    classify_point,
    curvature_closed,
    curvature_numeric,
    dynamical_phase_quadrature,
    eigensystem,
    fold_phase,
    label_eigenstates,
    lattice_flux,
    propagator_exact,
    propagator_rk4,
    rotating_sz_expectation,
    wilson_loop_phase,
)
from drivenspin import geometry
from drivenspin.evolution import CyclicSystem
from drivenspin.geometry import _CHERN_BLOCK, _adiabatic_band_states, _rotating_band_states
from drivenspin.qmodel import SZ_TOTAL_DIAG


def anti_phase(b=2.0, theta=0.0, omega=0.0, t_lr=0.0):
    return DriveConfig(b=b, theta=theta, phi_l=0.0, phi_r=-math.pi, omega=omega, t_lr=t_lr)


class TestFolding:
    def test_fold_phase(self):
        assert fold_phase(0.0) == 0.0
        assert fold_phase(math.pi) == math.pi
        assert fold_phase(-math.pi) == math.pi
        assert fold_phase(2 * math.pi) == pytest.approx(0.0, abs=1e-15)
        assert fold_phase(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)

    def test_circular_distance(self):
        assert circular_distance(math.pi - 0.01, -math.pi + 0.01) == pytest.approx(0.02)
        got = circular_distance(np.array([math.pi - 0.01, 0.5]), [-math.pi + 0.01, 0.5])
        assert got.tolist() == [circular_distance(math.pi - 0.01, -math.pi + 0.01), 0.0]

    @pytest.mark.filterwarnings("error")
    def test_non_finite_folds_to_nan(self):
        for x in (math.inf, -math.inf, math.nan):
            y = fold_phase(x)
            assert type(y) is float and math.isnan(y)
            assert math.isnan(circular_distance(x, 0.0))
        y = fold_phase(np.array([math.inf, 0.5, -math.inf, math.nan]))
        assert np.isnan(y[[0, 2, 3]]).all() and y[1] == 0.5

    def test_arrays_fold_as_floats(self):
        xs = [-math.pi, math.pi, 3 * math.pi, -3 * math.pi, 0.0, -0.0, 7.5, -1e9, 1e-300]
        got = fold_phase(np.array(xs))
        assert got[0] == math.pi and got.dtype == np.float64
        # bit for bit the float fold, the sign of a zero included
        assert [float.hex(v) for v in got.tolist()] == [float.hex(fold_phase(x)) for x in xs]

    def test_scalar_gives_python_float(self):
        for x in (0.5, np.float64(0.5), np.float32(0.5), 2):
            assert type(fold_phase(x)) is float
            assert type(circular_distance(x, 0.25)) is float
        assert fold_phase(-math.pi) == math.pi


class TestWilson:
    def test_in_phase_equator_is_pi(self):
        cfg = DriveConfig(b=2.0, theta=0.0, t_lr=0.7)
        for m2 in (+1, -1):
            got = berry_phase_wilson(cfg, math.pi / 2, StateLabel(+1, m2), n_steps=128)
            assert circular_distance(got, math.pi) < 1e-6

    def test_north_pole_vanishes(self):
        cfg = DriveConfig(b=2.0, theta=0.0, t_lr=0.7)
        for lab in LABELS:
            got = berry_phase_wilson(cfg, 0.0, lab, n_steps=128)
            assert circular_distance(got, 0.0) < 1e-12

    def test_anti_phase_matches_renormalized_form(self):
        # independent evaluation of the anti-phase closed form:
        # pi (m1 (lam m2 - cos) + f) / f with f = sqrt(1 + lam^2 - 2 m2 lam cos)
        cfg = anti_phase(t_lr=1.2)
        theta = 2 * math.pi / 5
        lam, c = cfg.lam, math.cos(theta)
        for m1, m2 in LABELS:
            f = math.sqrt(1 + lam**2 - 2 * m2 * lam * c)
            expected = fold_phase(math.pi * (m1 * (lam * m2 - c) + f) / f)
            got = berry_phase_wilson(cfg, theta, StateLabel(m1, m2), n_steps=256)
            assert circular_distance(got, expected) < 1e-6

    def test_decoupled_sites_degenerate(self):
        cfg = DriveConfig(b=2.0, theta=0.0, t_lr=0.0)
        with pytest.raises(DegenerateGap):
            berry_phase_wilson(cfg, 1.0, StateLabel(1, 1), n_steps=128)

    def test_in_phase_lam1_degenerate(self):
        cfg = DriveConfig(b=2.0, theta=0.0, t_lr=1.0)
        with pytest.raises(DegenerateGap):
            berry_phase_wilson(cfg, 1.0, StateLabel(1, 1), n_steps=128)

    def test_rejects_bad_steps(self):
        cfg = DriveConfig(b=2.0, theta=0.0, t_lr=0.7)
        with pytest.raises(ValueError):
            berry_phase_wilson(cfg, 1.0, StateLabel(1, 1), n_steps=32)

    @pytest.mark.parametrize(
        "n_steps,message",
        [
            (128.0, "n_steps must be an integer, got 128.0"),
            (np.float64(128.0), "n_steps must be an integer, got np.float64(128.0)"),
            ("128", "n_steps must be an integer, got '128'"),
        ],
    )
    def test_non_integer_steps_refused(self, n_steps, message):
        """128.0 == 128, so a float count would silently share the cached loop of 128."""
        cfg = DriveConfig(b=2.0, theta=0.0, t_lr=0.7)
        geometry._wilson_band_phases.cache_clear()
        want = berry_phase_wilson(cfg, 1.0, StateLabel(1, 1), n_steps=128)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            berry_phase_wilson(cfg, 1.0, StateLabel(1, 1), n_steps=n_steps)
        assert berry_phase_wilson(cfg, 1.0, StateLabel(1, 1), n_steps=np.int64(128)) == want
        geometry._wilson_band_phases.cache_clear()

    def test_band_phase_cache_hooks(self):
        # perfbench/run.py clears this cache and reads its counters around every job
        cache = geometry._wilson_band_phases
        cache.cache_clear()
        assert cache.cache_info().currsize == 0
        cfg = anti_phase(t_lr=0.6)
        for lab in LABELS:
            berry_phase_wilson(cfg, 0.9, lab, n_steps=128)
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 1, 1)
        cache.cache_clear()
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_failing_loop_is_solved_once(self, monkeypatch):
        # t_lr = 0: the bands are degenerate, so every band's loop fails the
        # same labelled solve, which the cache keeps; each call raises afresh
        solves = []
        real = geometry.eigh_stack
        monkeypatch.setattr(geometry, "eigh_stack", lambda h: solves.append(h) or real(h))
        geometry._wilson_band_phases.cache_clear()
        cfg = DriveConfig(b=2.0, theta=1.0, t_lr=0.0)
        raised = []
        for lab in LABELS:
            with pytest.raises(DegenerateGap) as info:
                berry_phase_wilson(cfg, 1.0, lab, n_steps=128)
            raised.append(info.value)
        geometry._wilson_band_phases.cache_clear()
        assert len(solves) == 1
        assert len({id(exc) for exc in raised}) == 4
        assert {str(exc) for exc in raised} == {
            "eigenvalue gap 0.000e+00 below 2.0e-06 at grid point theta=1.000000, varphi=0.000000"
        }
        # a resolved loop: one eigensolve of its 2 * n_steps points serves four bands
        solves.clear()
        for lab in LABELS:
            berry_phase_wilson(anti_phase(t_lr=0.6), 1.0, lab, n_steps=128)
        geometry._wilson_band_phases.cache_clear()
        assert [np.shape(h) for h in solves] == [(1, 256, 4, 4)]

    def test_raw_loop_second_order(self):
        # the plain overlap product converges as O(1/n^2)
        cfg = anti_phase(t_lr=0.6, theta=0.9)
        phis = lambda n: 2 * math.pi * np.arange(n) / n
        errs = []
        expected = berry_phase_closed(cfg, 0.9, StateLabel(1, 1))
        for n in (64, 128, 256):
            states, _ = _adiabatic_band_states(cfg, np.array([0.9]), phis(n))
            raw = wilson_loop_phase(states[0, :, :, 0])
            errs.append(circular_distance(raw, expected))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("n", [128, 256, 1024])
    def test_covariant_loop_matches_diagonalized_loop(self, n):
        # The berry column's rule: the loop of the labelled varphi = 0 states v
        # carried by exp(-i varphi Sz_total) tends to 2 pi <Sz_total> - pi of v.
        # berry_phase_wilson diagonalizes every point of its loop and carries
        # nothing; at n_steps = n it agrees within its own convergence
        # tolerance, and a failing solve fails by the same name.
        rng = np.random.default_rng(n)
        compared = []
        for i in range(36):
            theta = (0.0, math.pi, *rng.uniform(0.0, math.pi, 4))[i % 6]
            t_lr = 0.0 if i % 9 == 8 else rng.uniform(0.05, 2.0)
            cfg = DriveConfig(b=rng.uniform(0.5, 4.0), theta=theta,
                              phi_r=(0.0, -math.pi)[i % 2], t_lr=t_lr)
            geometry._wilson_band_phases.cache_clear()
            try:
                want = [berry_phase_wilson(cfg, theta, lab, n_steps=n) for lab in LABELS]
            except DrivenSpinError as exc:
                want = type(exc).__name__
            try:
                v = _adiabatic_band_states(cfg, np.array([theta]), [0.0])[0][0, 0]
                got = fold_phase(2.0 * math.pi * geometry._sz_total(v.T) - math.pi)
            except DrivenSpinError as exc:
                got = type(exc).__name__
            if isinstance(want, str) or isinstance(got, str):
                assert isinstance(got, str) and got == want, cfg
                continue
            assert max(circular_distance(got, want)) <= geometry.WILSON_CONV_TOL, cfg
            compared.append((cfg.phase_branch(), theta in (0.0, math.pi)))
        geometry._wilson_band_phases.cache_clear()
        # resolved loops on both branches, at the poles and away from them
        assert set(compared) == {(branch, pole) for branch in (0.0, math.pi)
                                 for pole in (False, True)}


def test_sz_total_of_a_stack_rounds_as_vdot():
    """The batched <Sz_total> of the nonadiabatic berry column is each vector's
    np.vdot bit for bit (an einsum or |v|^2 @ Sz rounds differently)."""
    rng = np.random.default_rng(29)
    v = rng.normal(size=(300, 4, 4)) + 1j * rng.normal(size=(300, 4, 4))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    want = [[float(np.real(np.vdot(w, SZ_TOTAL_DIAG * w))) for w in row] for row in v]
    assert geometry._sz_total(v).tolist() == want
    one = geometry._sz_total(v[7, 2])
    assert type(one) is float and one == want[7][2]


class TestBerryClosed:
    def test_lam0_reduces_to_in_phase(self):
        for theta in np.linspace(0.0, math.pi, 7):
            cfg0 = DriveConfig(b=2.0, theta=0.0, t_lr=0.0)
            cfgp = anti_phase(t_lr=0.0)
            for lab in LABELS:
                assert berry_phase_closed(cfgp, theta, lab) == pytest.approx(
                    berry_phase_closed(cfg0, theta, lab), abs=1e-12
                )

    def test_in_phase_tunneling_independent(self):
        for t_lr in (0.0, 0.5, 5.0):
            cfg = DriveConfig(b=2.0, theta=0.0, t_lr=t_lr)
            got = berry_phase_closed(cfg, 0.8, StateLabel(1, 1))
            assert got == berry_phase_closed(
                DriveConfig(b=2.0, theta=0.0), 0.8, StateLabel(1, 1)
            )

    def test_explicit_value(self):
        # lam=0.6, theta=pi/4, band (+1,+1):
        # pi (0.6 - sqrt(2)/2 + f) / f with f = sqrt(1.36 - 1.2 sqrt(2)/2)
        cfg = anti_phase(t_lr=0.6)
        f = math.sqrt(1.36 - 1.2 * math.sqrt(2) / 2)
        expected = fold_phase(math.pi * (0.6 - math.sqrt(2) / 2 + f) / f)
        got = berry_phase_closed(cfg, math.pi / 4, StateLabel(1, 1))
        assert got == pytest.approx(expected, abs=1e-15)

    def test_band_touching_raises(self):
        cfg = anti_phase(t_lr=1.0)
        with pytest.raises(DegenerateGap):
            berry_phase_closed(cfg, 0.0, StateLabel(1, 1))


class TestCyclicPhase:
    def test_mu0_limit(self):
        for theta in np.linspace(0.1, math.pi - 0.1, 5):
            cfg = DriveConfig(b=2.0, theta=theta, omega=0.0, t_lr=0.0)
            for m1, m2 in LABELS:
                got = aa_phase_closed(cfg, StateLabel(m1, m2))
                assert got == pytest.approx(
                    fold_phase(-m1 * math.pi * math.cos(theta)), abs=1e-12
                )

    def test_equator_mu2_value(self):
        # mu = 2 at the equator: m1 * 2 pi / sqrt(5), in phase, any m2
        cfg = DriveConfig(b=2.0, theta=math.pi / 2, omega=4.0, t_lr=0.3)
        for m1, m2 in LABELS:
            got = aa_phase_closed(cfg, StateLabel(m1, m2))
            assert got == pytest.approx(m1 * 2 * math.pi / math.sqrt(5), abs=1e-15)

    def test_matches_sz_expectation(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            cfg = DriveConfig(
                b=rng.uniform(0.5, 3),
                theta=rng.uniform(0.07, math.pi - 0.07),
                phi_r=-math.pi if rng.integers(2) else 0.0,
                omega=rng.uniform(0, 4),
                t_lr=rng.uniform(0.05, 1.5),
            )
            for lab in LABELS:
                try:
                    closed = aa_phase_closed(cfg, lab)
                except DegenerateGap:
                    continue
                numeric = 2 * math.pi * rotating_sz_expectation(cfg, lab)
                assert circular_distance(closed, fold_phase(numeric)) < 1e-8

    def test_offset_pi_against_loop_phase(self):
        # at omega=0 the cyclic-state phase and the loop phase differ by pi
        for theta in (0.4, 1.9, 2.8):
            for t_lr in (0.0, 0.35, 0.8):
                cfg = anti_phase(theta=theta, t_lr=t_lr)
                for lab in LABELS:
                    aa = aa_phase_closed(cfg, lab)
                    berry = berry_phase_closed(cfg, theta, lab)
                    assert circular_distance(berry - aa, math.pi) < 1e-12


class TestCurvature:
    def test_in_phase_equator(self):
        cfg = DriveConfig(b=2.0, theta=0.0, t_lr=0.7)
        for m1, m2 in LABELS:
            sample = curvature_closed(cfg, math.pi / 2, StateLabel(m1, m2), "adiabatic")
            assert sample == pytest.approx(0.5 * m1, abs=1e-15)

    def test_overflow_is_named(self):
        # (1 + mu^2)^(3/2) overflows although mu itself is finite
        cfg = DriveConfig(b=1.0, theta=0.0, omega=1e120)
        with pytest.raises(NonConverged):
            curvature_closed(cfg, 1.0, StateLabel(1, 1), "nonadiabatic")

    def test_large_tunneling_flattens(self):
        cfg = anti_phase(t_lr=50.0)
        for theta in np.linspace(0.1, math.pi - 0.1, 7):
            sample = curvature_closed(cfg, theta, StateLabel(1, 1), "adiabatic")
            assert abs(sample) < 1e-3

    def test_mu0_reduces_to_adiabatic(self):
        cfg = DriveConfig(b=2.0, theta=0.0, omega=0.0, t_lr=0.9)
        for theta in np.linspace(0.0, math.pi, 9):
            for lab in LABELS:
                na = curvature_closed(cfg, theta, lab, "nonadiabatic")
                ad = curvature_closed(cfg, theta, lab, "adiabatic")
                assert na == pytest.approx(ad, abs=1e-12)

    def test_numeric_matches_closed_in_phase(self):
        cfg = DriveConfig(b=2.0, theta=0.0, t_lr=0.7)
        for m1 in (+1, -1):
            got = curvature_numeric(cfg, math.pi / 2, 0.3, StateLabel(m1, 1), "adiabatic")
            assert got == pytest.approx(0.5 * m1, abs=1e-4)

    def test_numeric_pole_vanishes(self):
        cfg = DriveConfig(b=2.0, theta=0.0, t_lr=0.7)
        got = curvature_numeric(cfg, 0.0, 0.0, StateLabel(1, 1), "adiabatic")
        assert abs(got) < 1e-6

    def test_numeric_matches_closed_nonadiabatic(self):
        cfg = anti_phase(omega=1.5, t_lr=1.0)
        assert cfg.delta(+1) == 1.75 and cfg.delta(-1) == -0.25
        for lab in LABELS:
            closed = curvature_closed(cfg, math.pi / 3, lab, "nonadiabatic")
            numeric = curvature_numeric(cfg, math.pi / 3, 0.0, lab, "nonadiabatic")
            assert numeric == pytest.approx(closed, abs=1e-4)

    def test_vanishes_at_poles(self):
        # sin(theta) prefactor; at theta = pi only up to float pi roundoff
        cfg = anti_phase(omega=1.5, t_lr=0.4)
        for theta in (0.0, math.pi):
            for regime in ("adiabatic", "nonadiabatic"):
                for lab in LABELS:
                    assert abs(curvature_closed(cfg, theta, lab, regime)) < 1e-15

    def test_consistency_with_connection_derivative(self):
        # F = + d<Sz_total>/dtheta with the package orientation
        cfg = anti_phase(omega=1.5, t_lr=1.0)
        eps = 1e-6
        for theta in (0.6, 1.2, 2.3):
            for lab in LABELS:
                up = rotating_sz_expectation(
                    DriveConfig(b=2, theta=theta + eps, phi_r=-math.pi, omega=1.5, t_lr=1.0),
                    lab,
                )
                dn = rotating_sz_expectation(
                    DriveConfig(b=2, theta=theta - eps, phi_r=-math.pi, omega=1.5, t_lr=1.0),
                    lab,
                )
                deriv = (up - dn) / (2 * eps)
                numeric = curvature_numeric(cfg, theta, 0.1, lab, "nonadiabatic")
                assert numeric == pytest.approx(deriv, abs=1e-4)

    @staticmethod
    def _four_overlap_cell(cfg, theta, varphi, label, regime, h=1e-3):
        # the cell product written out overlap by overlap, as an independent reference
        th = np.array([theta - h / 2.0, theta + h / 2.0])
        ph = np.array([varphi - h / 2.0, varphi + h / 2.0])
        builder = _adiabatic_band_states if regime == "adiabatic" else _rotating_band_states
        states, _ = builder(cfg, th, ph)
        u = states[..., LABELS.index(label)]
        plaq = (
            np.vdot(u[0, 0], u[0, 1]) * np.vdot(u[0, 1], u[1, 1])
            * np.vdot(u[1, 1], u[1, 0]) * np.vdot(u[1, 0], u[0, 0])
        )
        return float(np.angle(plaq)) / (h * h)

    @pytest.mark.parametrize("regime", ["adiabatic", "nonadiabatic"])
    @pytest.mark.parametrize("phi_r", [0.0, -math.pi])
    def test_numeric_is_the_four_overlap_cell(self, regime, phi_r):
        cfg = DriveConfig(b=2.0, theta=0.0, phi_r=phi_r, omega=1.5, t_lr=0.8)
        for theta in (0.0, 0.4, 1.3, 2.5, math.pi):
            for lab in LABELS:
                got = curvature_numeric(cfg, theta, 0.3, lab, regime)
                ref = self._four_overlap_cell(cfg, theta, 0.3, lab, regime)
                assert got == pytest.approx(ref, abs=1e-8)

    def test_coarse_cell_is_not_converged(self):
        # corner overlaps drop below 0.5 across a 2.2-wide cell
        cfg = DriveConfig(b=2.0, theta=0.0, t_lr=0.3)
        with pytest.raises(NonConverged):
            curvature_numeric(cfg, math.pi / 2, 0.0, StateLabel(1, 1), "adiabatic", h=2.2)


class TestChernLattice:
    def test_in_phase_is_m1(self):
        for t_lr in (0.3, 1.5):
            cfg = DriveConfig(b=2.0, theta=0.0, t_lr=t_lr)
            report = chern_lattice(cfg, 40, 40, "adiabatic")
            for m1, m2 in LABELS:
                assert report.c1[StateLabel(m1, m2)] == m1

    def test_anti_phase_above_transition_trivial(self):
        report = chern_lattice(anti_phase(t_lr=1.2), 40, 40, "adiabatic")
        assert all(c == 0 for c in report.c1.values())

    def test_anti_phase_below_transition(self):
        report = chern_lattice(anti_phase(t_lr=0.45), 40, 40, "adiabatic")
        for m1, m2 in LABELS:
            assert report.c1[StateLabel(m1, m2)] == m1

    def test_transition_detected(self):
        with pytest.raises(DegenerateGap):
            chern_lattice(anti_phase(t_lr=1.0), 40, 40, "adiabatic")

    def test_nonadiabatic_half_topological_point(self):
        report = chern_lattice(anti_phase(omega=1.5, t_lr=1.0), 40, 40, "nonadiabatic")
        for m1, m2 in LABELS:
            assert report.c1[StateLabel(m1, m2)] == (m1 if m2 == -1 else 0)

    def test_band_sum_rule(self):
        for cfg, regime in (
            (DriveConfig(b=2.0, theta=0.0, t_lr=0.8), "adiabatic"),
            (anti_phase(t_lr=0.5), "adiabatic"),
            (anti_phase(omega=1.5, t_lr=1.0), "nonadiabatic"),
            (DriveConfig(b=2.0, theta=0.0, omega=3.0, t_lr=0.4), "nonadiabatic"),
        ):
            assert chern_lattice(cfg, 30, 30, regime).band_sum() == 0

    def test_grid_convergence(self):
        cfg = anti_phase(omega=0.9, t_lr=0.6)
        results = [
            chern_lattice(cfg, n, n, "nonadiabatic").c1 for n in (50, 100, 200)
        ]
        assert results[0] == results[1] == results[2]

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            chern_lattice(anti_phase(t_lr=0.5), 10, 40, "adiabatic")

    @pytest.mark.parametrize(
        "n_theta,n_phi,message",
        [
            (20.9, 20, "n_theta must be an integer, got 20.9"),
            (20.0, 20, "n_theta must be an integer, got 20.0"),
            (20, np.float64(21.0), "n_phi must be an integer, got np.float64(21.0)"),
            (20, "20", "n_phi must be an integer, got '20'"),
            (None, 20.5, "n_theta must be an integer, got None"),
        ],
    )
    def test_non_integer_counts_refused(self, n_theta, n_phi, message):
        """int() would truncate 20.9 to a 20-row grid; a float count is refused by name."""
        for regime in ("adiabatic", "nonadiabatic"):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                chern_lattice(anti_phase(t_lr=0.5, omega=1.5), n_theta, n_phi, regime)
        report = chern_lattice(anti_phase(t_lr=0.5), np.int64(20), np.int32(20))
        assert report.c1 == chern_lattice(anti_phase(t_lr=0.5), 20, 20).c1


def _single_pass_chern(cfg, n_theta, n_phi, regime):
    """(flux, min_gap) of one pass over the whole grid: one build, one flux sum."""
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    builder = _adiabatic_band_states if regime == "adiabatic" else _rotating_band_states
    states, min_gap = builder(cfg, thetas, phis)
    return lattice_flux(states), min_gap


def _outcome(call):
    try:
        return call()
    except (DegenerateGap, AmbiguousMatch, NonConverged) as exc:
        return type(exc).__name__, str(exc)


def _strip_matches_full_grid(n_theta, phi_r):
    """The nonadiabatic strip against the full covariant grid summed by lattice_flux.

    Seeded draws on one branch, some with t_lr = 0 (a zero gap) or
    t_lr / b ~ 1e8 (eigh misses the closed form), at several n_phi.
    """
    rng = np.random.default_rng(n_theta)
    failed = 0
    for n_phi in (20, 33, 40, 100):
        for _ in range(5):
            b, kind = rng.uniform(0.5, 4.0), rng.integers(10)
            if kind > 1:
                t_lr = rng.uniform(0.0, 2.0)
            else:
                t_lr = b * rng.uniform(1e8, 1e9) if kind else 0.0
            cfg = DriveConfig(b=b, theta=0.0, phi_r=phi_r, omega=rng.uniform(0, 3), t_lr=t_lr)
            single = _outcome(lambda: _single_pass_chern(cfg, n_theta, n_phi, "nonadiabatic"))
            strip = _outcome(lambda: chern_lattice(cfg, n_theta, n_phi, "nonadiabatic"))
            if isinstance(single[0], str):
                assert strip == single  # name and message
                failed += 1
                continue
            flux, min_gap = single
            assert np.max(np.abs(flux - np.round(flux))) < 1e-9
            assert strip.c1 == {lab: round(float(flux[k])) for k, lab in enumerate(LABELS)}
            assert strip.min_gap == min_gap
    assert 0 < failed < 20


class TestChernBlocks:
    @pytest.mark.parametrize("phi_r", [0.0, -math.pi], ids=["phi0", "phipi"])
    @pytest.mark.parametrize("regime", ["adiabatic", "nonadiabatic"])
    @pytest.mark.parametrize("n_theta", [20, 64, 65, 66, 129, 200])
    def test_matches_single_pass(self, monkeypatch, n_theta, regime, phi_r):
        if regime == "nonadiabatic":
            _strip_matches_full_grid(n_theta, phi_r)
            return
        assert _CHERN_BLOCK == 64  # the n_theta cases straddle one and two blocks
        cfg = DriveConfig(b=2.0, theta=0.0, phi_r=phi_r, omega=1.5, t_lr=0.45)
        single = _outcome(lambda: _single_pass_chern(cfg, n_theta, 40, regime))
        if isinstance(single[0], str):
            # odd anti-phase adiabatic grids hold the equator crossing; at 129
            # rows it is the row the two blocks share
            assert _outcome(lambda: chern_lattice(cfg, n_theta, 40, regime)) == single
            return
        flux, min_gap = single
        fluxes = []

        def recording_flux(states):
            fluxes.append(lattice_flux(states))
            return fluxes[-1]

        monkeypatch.setattr(geometry, "lattice_flux", recording_flux)
        report = chern_lattice(cfg, n_theta, 40, regime)
        assert len(fluxes) == -(-(n_theta - 1) // _CHERN_BLOCK)
        assert np.max(np.abs(sum(fluxes) - flux)) < 1e-12
        assert report.c1 == {lab: round(float(flux[k])) for k, lab in enumerate(LABELS)}
        assert report.min_gap == min_gap

    @pytest.mark.parametrize(
        "b,t_lr,phi_r,n_theta,regime",
        [
            # lam = 1 - 1e-12: the smallest gap is in the last block, not the first
            (2.0, 1.0 - 1e-12, -math.pi, 130, "adiabatic"),
            (2.0, 1.0 - 1e-12, 0.0, 200, "adiabatic"),
            (2.0, 1.0 + 1e-12, -math.pi, 200, "adiabatic"),
            # t_lr = 0: the gap is 0 in every block; the first names the first point
            (2.0, 0.0, 0.0, 200, "adiabatic"),
            (2.0, 0.0, -math.pi, 200, "nonadiabatic"),
            # t_lr / b ~ 1e8: eigh misses the closed form by more than 1e-8 b
            (1.0, 3e8, -math.pi, 200, "adiabatic"),
            (0.5, 5e8, 0.0, 200, "nonadiabatic"),
            # t_lr / b ~ 1e12: so does the sector solve, by an ulp of t_lr
            (0.7, 1e12, 0.0, 200, "adiabatic"),
        ],
    )
    def test_failure_is_the_whole_grids(self, b, t_lr, phi_r, n_theta, regime):
        omega = 1.0 if regime == "nonadiabatic" else 0.0
        cfg = DriveConfig(b=b, theta=0.0, phi_r=phi_r, omega=omega, t_lr=t_lr)
        blocked = _outcome(lambda: chern_lattice(cfg, n_theta, 40, regime))
        single = _outcome(lambda: _single_pass_chern(cfg, n_theta, 40, regime))
        assert isinstance(blocked, tuple) and blocked == single

    def test_sector_solve_resolves_large_in_phase_tunneling(self):
        # t_lr / b = 5e8 in phase: LAPACK missed the levels +-t_lr +-b/2 by
        # 1.7e-6 > 1e-8 b (AmbiguousMatch); the sector blocks give them exactly
        cfg = DriveConfig(b=2.0, theta=0.0, t_lr=1e9)
        report = chern_lattice(cfg, 200, 40, "adiabatic")
        assert report.c1 == {lab: chern_closed(cfg, lab, "adiabatic") for lab in LABELS}
        assert list(report.c1.values()) == [1, 1, -1, -1]

    def test_memory_does_not_grow_with_rows(self):
        def traced_peak(cfg, n_theta, regime):
            tracemalloc.start()
            try:
                chern_lattice(cfg, n_theta, 400, regime)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one pass over a 400x400 adiabatic grid peaks near 150 MiB
        assert traced_peak(anti_phase(t_lr=0.45), 400, "adiabatic") < 40 * 2**20
        # the nonadiabatic strip holds two varphi columns, about 0.5 KiB a
        # row; the 800x400 grid in 64-row blocks peaked at 20.6 MiB
        assert traced_peak(anti_phase(omega=1.5, t_lr=0.45), 800, "nonadiabatic") < 2 * 2**20

    @pytest.mark.parametrize("n_phi", [20, 100, 400])
    def test_nonadiabatic_grid_is_one_strip(self, monkeypatch, n_phi):
        calls = []

        def recording(name, fn):
            def wrapped(*args):
                calls.append((name, np.shape(args[0])))
                return fn(*args)

            monkeypatch.setattr(geometry, name, wrapped)

        for name in ("eigh_stack", "lattice_flux", "_plaquettes"):
            recording(name, getattr(geometry, name))
        chern_lattice(anti_phase(omega=1.5, t_lr=0.45), 100, n_phi, "nonadiabatic")
        # one eigensolve of the 100 rotating-frame rows, and one strip of
        # 99 plaquettes per band: no lattice_flux over a 100 x n_phi grid
        assert calls == [("eigh_stack", (100, 4, 4)), ("_plaquettes", (100, 4))]


class TestChernClosed:
    def test_anti_phase_below(self):
        cfg = anti_phase(t_lr=0.6)
        for m1, m2 in LABELS:
            assert chern_closed(cfg, StateLabel(m1, m2), "adiabatic") == m1

    def test_nonadiabatic_fast_drive_trivial(self):
        cfg = DriveConfig(b=2.0, theta=0.0, omega=4.0, t_lr=0.3)
        for lab in LABELS:
            assert chern_closed(cfg, lab, "nonadiabatic") == 0

    def test_on_transition(self):
        with pytest.raises(OnTransition):
            chern_closed(anti_phase(t_lr=1.0), StateLabel(1, 1), "adiabatic")
        with pytest.raises(OnTransition):
            chern_closed(
                DriveConfig(b=2.0, theta=0.0, omega=2.0), StateLabel(1, 1), "nonadiabatic"
            )
        # anti-phase cyclic branch: |Delta_-| = 1 exactly
        cfg = anti_phase(omega=4.0, t_lr=1.0)
        with pytest.raises(OnTransition):
            chern_closed(cfg, StateLabel(1, -1), "nonadiabatic")

    def test_matches_lattice(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 6:
            cfg = DriveConfig(
                b=rng.uniform(0.8, 3.5),
                theta=0.0,
                phi_r=-math.pi if rng.integers(2) else 0.0,
                omega=rng.uniform(0.0, 3.5),
                t_lr=rng.uniform(0.05, 1.6),
            )
            dists = [abs(abs(cfg.delta(m2)) - 1.0) for m2 in (+1, -1)]
            if min(dists) < 0.05 or abs(cfg.mu - 1.0) < 0.05 or abs(cfg.lam - 1.0) < 0.05:
                continue
            report = chern_lattice(cfg, 60, 60, "nonadiabatic")
            for lab in LABELS:
                assert report.c1[lab] == chern_closed(cfg, lab, "nonadiabatic")
            checked += 1


class TestGaugeInvariance:
    def test_discontinuous_loop_rejected(self):
        from drivenspin import NonConverged

        rng = np.random.default_rng(25)
        junk = rng.normal(size=(32, 4)) + 1j * rng.normal(size=(32, 4))
        junk /= np.linalg.norm(junk, axis=1, keepdims=True)
        with pytest.raises(NonConverged):
            wilson_loop_phase(junk)

    def test_wilson_loop_phase(self):
        cfg = anti_phase(t_lr=0.8)
        phis = 2 * math.pi * np.arange(64) / 64
        states, _ = _adiabatic_band_states(cfg, np.array([1.1]), phis)
        loop = states[0, :, :, 0]
        base = wilson_loop_phase(loop)
        rng = np.random.default_rng(23)
        gauged = loop * np.exp(1j * rng.uniform(0, 2 * math.pi, size=(64, 1)))
        assert circular_distance(wilson_loop_phase(gauged), base) < 1e-12

    def test_lattice_flux(self):
        cfg = anti_phase(omega=1.5, t_lr=1.0)
        thetas = np.linspace(0.0, math.pi, 24)
        phis = 2 * math.pi * np.arange(24) / 24
        states, _ = _rotating_band_states(cfg, thetas, phis)
        band = states[:, :, :, 1]
        base = lattice_flux(band)
        rng = np.random.default_rng(24)
        gauged = band * np.exp(1j * rng.uniform(0, 2 * math.pi, size=(24, 24, 1)))
        assert abs(lattice_flux(gauged) - base) < 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "reduce,states,error",
        [
            (wilson_loop_phase, np.full((3, 4), np.nan, complex), NonConverged),
            (lattice_flux, np.full((3, 3, 4), np.nan, complex), NonConverged),
            (wilson_loop_phase, np.zeros((0, 4), complex), ValueError),
            (wilson_loop_phase, np.ones(4, complex), ValueError),
        ],
        ids=["loop-nan", "flux-nan", "loop-empty", "loop-1d"],
    )
    def test_unusable_states_are_refused_by_name(self, reduce, states, error):
        # a nan overlap fails the overlap floor; a loop without points or
        # components is refused by its shape, not by a numpy message
        match = re.escape(f"got shape {states.shape}") if error is ValueError else "overlap"
        with pytest.raises(error, match=match):
            reduce(states)

    def test_orthogonal_rows_are_a_vanishing_link(self):
        states = np.zeros((2, 3, 4), dtype=complex)
        states[0, :, 0] = states[1, :, 1] = 1.0
        with pytest.raises(NonConverged, match="vanishing link overlap"):
            lattice_flux(states)

    def test_flux_quantization(self):
        cfg = anti_phase(omega=1.5, t_lr=1.0)
        thetas = np.linspace(0.0, math.pi, 40)
        phis = 2 * math.pi * np.arange(40) / 40
        states, _ = _rotating_band_states(cfg, thetas, phis)
        for band in range(4):
            flux = lattice_flux(states[:, :, :, band])
            assert abs(flux - round(flux)) < 1e-9


_DRIVE_POINTS = st.builds(
    DriveConfig,
    b=st.floats(0.5, 4.0),
    theta=st.just(0.0),
    phi_r=st.sampled_from([0.0, -math.pi]),
    omega=st.floats(0.0, 3.0),
    t_lr=st.floats(0.0, 2.0),
)
_REGIMES = st.sampled_from(["adiabatic", "nonadiabatic"])
#: A gapped drive point of _DRIVE_POINTS on each branch, by phi_l - phi_r.
_RESOLVED = {
    phi: DriveConfig(b=2.0, theta=0.0, phi_r=-phi, omega=0.7, t_lr=0.6)
    for phi in (0.0, math.pi)
}
_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(_DRIVE_POINTS, _REGIMES, st.integers(1, 18), st.integers(0, 2**32 - 1))
def test_loop_and_flux_ignore_per_state_phases(cfg, regime, row, seed):
    builder = _adiabatic_band_states if regime == "adiabatic" else _rotating_band_states
    thetas = np.linspace(0.0, math.pi, 20)
    phis = 2 * math.pi * np.arange(20) / 20
    try:
        states, _ = builder(cfg, thetas, phis)
    except DegenerateGap:  # a band touching on the grid
        return
    gauge = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * math.pi, (20, 20, 1, 4)))
    gauged = states * gauge
    loop, gauged_loop = wilson_loop_phase(states[row]), wilson_loop_phase(gauged[row])
    for a, b in zip(loop, gauged_loop):
        assert circular_distance(a, b) < 1e-9
    assert np.max(np.abs(lattice_flux(gauged) - lattice_flux(states))) < 1e-9


@_PROPERTY
@given(_DRIVE_POINTS, _REGIMES)
def test_chern_numbers_sum_to_zero(cfg, regime):
    try:
        report = chern_lattice(cfg, 20, 20, regime)
    except DegenerateGap:
        return
    assert report.band_sum() == 0


def test_chern_is_the_pole_sz_difference():
    # Rotation covariance makes every plaquette the same along varphi, so the
    # flux telescopes to the pole rows: c1 = <Sz_total>(south) - <Sz_total>(north).
    checked, degenerate = [], []

    @_PROPERTY
    @given(_DRIVE_POINTS, _REGIMES)
    # a resolved grid for each regime and branch, whatever the draws
    @example(_RESOLVED[0.0], "adiabatic")
    @example(_RESOLVED[0.0], "nonadiabatic")
    @example(_RESOLVED[math.pi], "adiabatic")
    @example(_RESOLVED[math.pi], "nonadiabatic")
    def check(cfg, regime):
        try:
            report = chern_lattice(cfg, 20, 20, regime)
        except DegenerateGap:
            degenerate.append(cfg)
            return
        builder = _adiabatic_band_states if regime == "adiabatic" else _rotating_band_states
        poles, _ = builder(cfg, np.array([0.0, math.pi]), np.array([0.0]))
        sz = np.einsum("pci,c->pi", np.abs(poles[:, 0]) ** 2, SZ_TOTAL_DIAG)
        for k, lab in enumerate(LABELS):
            assert abs(report.c1[lab] - (sz[1, k] - sz[0, k])) < 1e-9
        checked.append((regime, cfg.phase_branch()))

    check()
    # t_lr = 0 and other band touchings make many draws degenerate; both
    # regimes and both branches must still be checked many times
    assert len(checked) >= 50, f"{len(checked)} checked, {len(degenerate)} degenerate"
    assert len(set(checked)) == 4


def test_nonadiabatic_chern_ignores_n_phi():
    # The rotating grid is covariant, so its flux is the pole <Sz_total>
    # difference whatever the varphi resolution: c1, min_gap and the failure
    # name are those of n_phi = 20.
    checked = set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_DRIVE_POINTS, st.integers(20, 41))
    # a resolved grid for each n_theta parity and branch, whatever the draws
    @example(_RESOLVED[0.0], 20)
    @example(_RESOLVED[0.0], 21)
    @example(_RESOLVED[math.pi], 20)
    @example(_RESOLVED[math.pi], 21)
    def check(cfg, n_theta):
        outcomes = []
        for n_phi in (20, 33, 100):
            try:
                report = chern_lattice(cfg, n_theta, n_phi, "nonadiabatic")
                outcomes.append((report.c1, report.min_gap))
            except DrivenSpinError as exc:
                outcomes.append(type(exc).__name__)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        checked.add((n_theta % 2, cfg.phase_branch(), isinstance(outcomes[0], str)))

    check()
    # odd and even n_theta, both branches, each with a resolved grid
    assert {(odd, branch) for odd, branch, failed in checked if not failed} == {
        (odd, branch) for odd in (0, 1) for branch in (0.0, math.pi)
    }


@pytest.mark.parametrize(
    "closed_form",
    [
        lambda cfg, lab: berry_phase_closed(cfg, 1.0, lab),
        lambda cfg, lab: aa_phase_closed(cfg, lab),
        lambda cfg, lab: curvature_closed(cfg, 1.0, lab, "adiabatic"),
        lambda cfg, lab: curvature_closed(cfg, 1.0, lab, "nonadiabatic"),
    ],
    ids=["berry", "aa", "curvature-adiabatic", "curvature-nonadiabatic"],
)
def test_closed_forms_refuse_overflowing_sector_parameter(closed_form):
    # lam = 2 t_lr / b and mu = omega / b are inf; the closed forms would be nan
    cfg = DriveConfig(b=1e-300, theta=1.0, phi_r=-math.pi, omega=1e10, t_lr=1e10)
    for lab in LABELS:
        with pytest.raises(NonConverged):
            closed_form(cfg, lab)


_DRIVEN = DriveConfig(b=2.0, theta=1.0, phi_r=-math.pi, omega=1.5, t_lr=1.0)


def _curvature_cell(h):
    return curvature_numeric(_DRIVEN, 1.0, 0.0, StateLabel(1, 1), "adiabatic", h=h)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: propagator_rk4(_DRIVEN, math.inf, 1000), "t"),
        (lambda: propagator_rk4(_DRIVEN, math.nan, 1000), "t"),
        (lambda: propagator_exact(_DRIVEN, -math.inf), "t"),
        (lambda: build_hamiltonian(_DRIVEN, math.inf), "s"),
        (lambda: build_hamiltonian(_DRIVEN, math.nan), "s"),
        (lambda: _curvature_cell(0.0), "h"),
        (lambda: _curvature_cell(-1e-3), "h"),
        (lambda: _curvature_cell(math.inf), "h"),
        (lambda: lattice_flux(np.ones((1, 4, 4), dtype=complex)), "states"),
        (lambda: lattice_flux(np.ones((4, 0, 4), dtype=complex)), "states"),
        (lambda: _DRIVEN.delta(0), "m2"),
        (lambda: dynamical_phase_quadrature(_DRIVEN, StateLabel(1, 1), n_panels=3), "n_panels"),
        (lambda: classify_point(_DRIVEN, method="x"), "method"),
        (lambda: chern_lattice(_DRIVEN, 20, 20, regime="rotating"), "regime"),
        (lambda: label_eigenstates(
            eigensystem(build_hamiltonian(_DRIVEN, 0.0)), _DRIVEN, regime="nonadiabatic"
        ), "regime"),
    ],
    ids=[
        "rk4-inf", "rk4-nan", "exact-inf", "build-inf", "build-nan",
        "curvature-zero", "curvature-negative", "curvature-inf", "flux-one-row", "flux-no-column",
        "delta-m2", "quadrature-odd-panels", "classify-method", "chern-regime", "label-regime",
    ],
)
def test_numeric_entry_points_refuse_bad_arguments(call, name):
    # raised before any arithmetic: no numpy warning (an error here), nan or numpy ValueError
    with pytest.raises(ValueError, match=rf"^{name} "):
        call()


def test_off_branch_drive_is_refused_before_labelling(monkeypatch):
    # at t_lr = 0 every band touches, so a gap check made before the branch
    # check would name DegenerateGap
    solves = []
    eigh_stack = geometry.eigh_stack
    monkeypatch.setattr(geometry, "eigh_stack", lambda h: solves.append(np.shape(h)) or eigh_stack(h))
    off = DriveConfig(b=2.0, theta=0.0, phi_r=-0.3)
    for regime in ("adiabatic", "nonadiabatic"):
        with pytest.raises(UnsupportedPhase):
            chern_lattice(replace(off, omega=1.5), 400, 400, regime)
    assert solves == []
    with pytest.raises(UnsupportedPhase):
        berry_phase_wilson(off, 1.0, StateLabel(1, 1), n_steps=128)
    with pytest.raises(UnsupportedPhase):
        label_eigenstates(eigensystem(build_hamiltonian(off, 0.0)), off)
    system = CyclicSystem.of(replace(off, omega=1.5))
    with pytest.raises(UnsupportedPhase):
        system.phases(StateLabel(1, 1))
    # the propagator labels nothing, so it still works off the branches
    want = propagator_rk4(system.cfg, 1.0, n_steps=2000)
    assert np.max(np.abs(system.propagator(1.0) - want)) < 1e-9
