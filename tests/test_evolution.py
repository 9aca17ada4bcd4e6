import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenspin import (
    DriveConfig,
    LABELS,
    NonConverged,
    StateLabel,
    ZeroFrequency,
    aa_phase_closed,
    build_rotating_hamiltonian,
    circular_distance,
    closed_form_quasienergies,
    dynamical_phase_quadrature,
    eigensystem,
    extract_phases,
    floquet_residual,
    fold_phase,
    label_eigenstates,
    propagator_exact,
    propagator_rk4,
)
from drivenspin import DrivenSpinError, evolution, spectra
from drivenspin.cli import main
from drivenspin.evolution import RK4_DRIFT_TOL, CyclicSystem, PhaseBreakdown
from drivenspin.qmodel import (
    SZ_TOTAL_DIAG,
    _lab_hamiltonian,
    rotation_about_z,
    spin_site_operators,
)


def random_driven_config(rng):
    return DriveConfig(
        b=rng.uniform(0.5, 3.0),
        theta=rng.uniform(0.1, math.pi - 0.1),
        phi_r=-math.pi if rng.integers(2) else 0.0,
        omega=rng.uniform(0.4, 4.0),
        t_lr=rng.uniform(0.05, 1.5),
    )


class TestPropagatorExact:
    def test_identity_at_t0(self):
        cfg = DriveConfig(b=2.0, theta=1.0, omega=1.5, t_lr=0.6)
        assert np.max(np.abs(propagator_exact(cfg, 0.0) - np.eye(4))) < 1e-14

    def test_unitarity(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            cfg = random_driven_config(rng)
            u = propagator_exact(cfg, rng.uniform(0, 10))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_zero_frequency_rejected(self):
        cfg = DriveConfig(b=2.0, theta=1.0, omega=0.0)
        with pytest.raises(ZeroFrequency):
            propagator_exact(cfg, 1.0)

    def test_solves_schroedinger(self):
        # finite-difference check of i dU/dt = H(t) U at a random instant
        from drivenspin import build_hamiltonian

        cfg = DriveConfig(b=1.7, theta=0.9, phi_r=-math.pi, omega=2.1, t_lr=0.8)
        t, eps = 0.83, 1e-6
        du = (propagator_exact(cfg, t + eps) - propagator_exact(cfg, t - eps)) / (2 * eps)
        rhs = -1j * build_hamiltonian(cfg, cfg.omega * t) @ propagator_exact(cfg, t)
        assert np.max(np.abs(du - rhs)) < 1e-6


class TestPropagatorRK4:
    def test_identity_at_t0(self):
        cfg = DriveConfig(b=2.0, theta=1.0, omega=1.5, t_lr=0.6)
        assert np.max(np.abs(propagator_rk4(cfg, 0.0, 1000) - np.eye(4))) < 1e-14

    def test_agrees_with_exact(self):
        rng = np.random.default_rng(32)
        for _ in range(3):
            cfg = random_driven_config(rng)
            period = 2 * math.pi / cfg.omega
            u_rk4, drift = propagator_rk4(cfg, period, 20_000, return_drift=True)
            dev = np.max(np.abs(u_rk4 - propagator_exact(cfg, period)))
            assert dev < 1e-10
            assert drift < 1e-10

    def test_fourth_order_convergence(self):
        cfg = DriveConfig(b=2.0, theta=1.0, phi_r=-math.pi, omega=1.9, t_lr=0.7)
        period = 2 * math.pi / cfg.omega
        exact = propagator_exact(cfg, period)
        e1 = np.max(np.abs(propagator_rk4(cfg, period, 1000) - exact))
        e2 = np.max(np.abs(propagator_rk4(cfg, period, 2000) - exact))
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_theta0_analytic_solution(self):
        # at theta=0 the Hamiltonian is static: a z rotation times a hop
        # rotation, U = exp(-i b t Sz_total) (cos(t_lr t) - i sin(t_lr t) Hop)
        cfg = DriveConfig(b=2.0, theta=0.0, omega=1.3, t_lr=0.8)
        ops = spin_site_operators()
        t = 0.9
        analytic = np.diag(np.exp(-1j * cfg.b * t * np.diag(ops["Sz_total"]))) @ (
            math.cos(cfg.t_lr * t) * np.eye(4) - 1j * math.sin(cfg.t_lr * t) * ops["Hop"]
        )
        u = propagator_rk4(cfg, t, 5000)
        assert np.max(np.abs(u - analytic)) < 1e-11

    def test_rejects_few_steps(self):
        cfg = DriveConfig(b=2.0, theta=1.0, omega=1.5)
        with pytest.raises(ValueError):
            propagator_rk4(cfg, 1.0, 100)

    @pytest.mark.parametrize(
        "n_steps,message",
        [
            (1000.9, "n_steps must be an integer, got 1000.9"),
            (2000.0, "n_steps must be an integer, got 2000.0"),
            (np.float64(1000.0), "n_steps must be an integer, got np.float64(1000.0)"),
            ("1000", "n_steps must be an integer, got '1000'"),
        ],
    )
    def test_non_integer_steps_refused(self, n_steps, message):
        """int() would truncate 1000.9 to 1000 steps; a float count is refused by name."""
        cfg = DriveConfig(b=2.0, theta=1.0, omega=1.5)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            propagator_rk4(cfg, 1.0, n_steps)
        want = propagator_rk4(cfg, 1.0, 1000)
        assert np.array_equal(propagator_rk4(cfg, 1.0, np.int64(1000)), want)


def rk4_transfer_matrices(cfg, dt, count):
    """The RK4 transfer matrices M_0 ... M_{count-1} of steps of size dt, at once."""
    times = 0.5 * dt * np.arange(2 * count + 1)
    hs = _lab_hamiltonian(cfg, s=cfg.omega * times)
    h0, h1, h2 = hs[0:-1:2], hs[1::2], hs[2::2]
    k1 = -1j * h0
    k2 = -1j * (h1 + 0.5 * dt * np.matmul(h1, k1))
    k3 = -1j * (h1 + 0.5 * dt * np.matmul(h1, k2))
    k4 = -1j * (h2 + dt * np.matmul(h2, k3))
    return np.eye(4, dtype=complex) + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def polish(u):
    """The closest unitary to u and the size of that correction."""
    w, _, vh = np.linalg.svd(u)
    unitary = w @ vh
    return unitary, float(np.linalg.norm(unitary - u))


@np.errstate(over="ignore", invalid="ignore")
def single_pass_rk4(cfg, t, n):
    """RK4 step by step: every half-step Hamiltonian and transfer matrix at once.

    Returns the polished unitary and its drift, or (None, inf) where the
    product overflows.
    """
    m = rk4_transfer_matrices(cfg, float(t) / n, n)
    while m.shape[0] > 1:
        half = m.shape[0] // 2
        paired = np.matmul(m[1 : 2 * half : 2], m[0 : 2 * half : 2])
        m = paired if m.shape[0] % 2 == 0 else np.concatenate([paired, m[-1:]])
    u = m[0]
    if not np.all(np.isfinite(u)):
        return None, math.inf
    return polish(u)


class TestPropagatorRK4Blocks:
    """The N-step product, taken in power-of-two blocks of steps by repeated
    squaring as R(t) (R(-dt) M_0)^N, against the step-by-step reference."""

    @pytest.mark.parametrize("phi_r", [0.0, -math.pi])
    @pytest.mark.parametrize(
        "n_steps", [1000, 1023, 1024, 1025, 3089, 4095, 4096, 4097, 12305, 100_000]
    )
    def test_bit_identical_to_single_pass(self, phi_r, n_steps):
        """The step that is raised to the N-th power is bit for bit the
        reference's first transfer matrix: no stage is rounded differently."""
        cfg = DriveConfig(b=2.3, theta=1.1, phi_r=phi_r, omega=1.7, t_lr=0.6)
        period = 2 * math.pi / cfg.omega
        dt = period / n_steps
        (m0,) = rk4_transfer_matrices(cfg, dt, 1)
        step = rotation_about_z(-cfg.omega * dt) @ m0
        ref_unitary, ref_drift = polish(
            rotation_about_z(cfg.omega * period) @ np.linalg.matrix_power(step, n_steps)
        )
        unitary, drift = propagator_rk4(cfg, period, n_steps, return_drift=True)
        assert np.array_equal(unitary, ref_unitary)
        assert drift == ref_drift

    @pytest.mark.parametrize("phi_r", [0.0, -math.pi])
    @pytest.mark.parametrize(
        "n_steps",
        # the edges of the binary expansion that repeated squaring walks,
        # and 3089 = 0b110000010001, whose bits are mostly apart
        [1000, 1023, 1024, 1025, 3089, 4095, 4096, 4097, 12305, 65535, 65536, 100_000],
    )
    def test_matches_single_pass(self, phi_r, n_steps):
        cfg = DriveConfig(b=2.3, theta=1.1, phi_r=phi_r, omega=1.7, t_lr=0.6)
        period = 2 * math.pi / cfg.omega
        unitary, drift = propagator_rk4(cfg, period, n_steps, return_drift=True)
        ref_unitary, ref_drift = single_pass_rk4(cfg, period, n_steps)
        assert np.max(np.abs(unitary - ref_unitary)) <= 1e-13
        # a drift this small is roundoff, which the order of products moves
        assert abs(drift - ref_drift) <= 1e-11

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(-1.0, 2.5),
        st.floats(0.0, math.pi),
        st.floats(-10.0, 10.0),
        st.floats(-10.0, 10.0),
        st.floats(-5.0, 0.5),
        st.floats(0.0, 2.0),
        st.floats(0.01, 1.0),
        st.integers(1000, 4097),
    )
    def test_matches_single_pass_over_drives(
        self, log_b, theta, phi_l, phi_r, log_omega, t_lr, fraction, n_steps
    ):
        """Any phases, the poles, decoupled sites and partial periods: the
        same outcome as the reference, and a resolved endpoint that agrees
        with it.  b is log-uniform from 0.1 to 316; omega (log-uniform) and
        t_lr are in units of b.  The slowest drives step too coarsely for
        their period, so about a quarter of the draws drift off the unitary
        group or overflow."""
        b = 10.0**log_b
        cfg = DriveConfig(
            b=b, theta=theta, phi_l=phi_l, phi_r=phi_r, omega=10.0**log_omega * b, t_lr=t_lr * b
        )
        t = fraction * 2 * math.pi / cfg.omega
        ref_unitary, ref_drift = single_pass_rk4(cfg, t, n_steps)
        try:
            unitary, drift = propagator_rk4(cfg, t, n_steps, return_drift=True)
        except NonConverged:
            assert ref_drift > RK4_DRIFT_TOL - 1e-9
            return
        assert ref_drift < RK4_DRIFT_TOL + 1e-9
        assert np.max(np.abs(unitary - ref_unitary)) <= 1e-12
        assert abs(drift - ref_drift) <= 1e-10

    def test_memory_does_not_grow_with_steps(self):
        cfg = DriveConfig(b=2.0, theta=1.0, omega=1.5, t_lr=0.6)
        period = 2 * math.pi / cfg.omega
        peaks = {}
        for n_steps in (20_000, 100_000):
            tracemalloc.start()
            try:
                propagator_rk4(cfg, period, n_steps)
                peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a single pass over all 100k steps would peak near 200 MiB; the
        # telescoped product holds a few 4x4 matrices whatever the step count
        assert peaks[100_000] < 4 * 2**20
        assert abs(peaks[100_000] / peaks[20_000] - 1.0) < 0.1


class TestExtractPhases:
    def test_cyclic_state(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            cfg = random_driven_config(rng)
            try:
                breakdown = extract_phases(cfg, StateLabel(1, -1))
            except Exception:
                continue
            labeled = label_eigenstates(
                eigensystem(build_rotating_hamiltonian(cfg)), cfg, regime="rotating"
            )
            vec = labeled.vector(StateLabel(1, -1))
            psi_t = propagator_exact(cfg, breakdown.period) @ vec
            assert abs(abs(np.vdot(vec, psi_t)) - 1.0) < 1e-10

    def test_geometric_offset_pi_from_cyclic_closed_form(self):
        for omega in (0.7, 1.5, 3.1):
            for t_lr in (0.2, 1.0):
                for phi_r in (0.0, -math.pi):
                    cfg = DriveConfig(
                        b=2.0, theta=1.0, phi_r=phi_r, omega=omega, t_lr=t_lr
                    )
                    for lab in LABELS:
                        breakdown = extract_phases(cfg, lab)
                        aa = aa_phase_closed(cfg, lab)
                        assert (
                            circular_distance(breakdown.geometric - aa, math.pi) < 1e-6
                        )

    @pytest.mark.parametrize(
        "n_panels,message",
        [
            (11.9, "n_panels must be an integer, got 11.9"),
            (12.0, "n_panels must be an integer, got 12.0"),
            (np.float64(10.0), "n_panels must be an integer, got np.float64(10.0)"),
            ("12", "n_panels must be an integer, got '12'"),
        ],
    )
    def test_non_integer_panels_refused(self, n_panels, message):
        """int() would truncate 11.9 and report "got 11"; a float count is refused by name."""
        cfg, lab = DriveConfig(b=2.0, theta=1.0, omega=1.5, t_lr=0.5), StateLabel(1, -1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dynamical_phase_quadrature(cfg, lab, n_panels=n_panels)
        assert dynamical_phase_quadrature(cfg, lab, n_panels=np.int64(12)) == (
            dynamical_phase_quadrature(cfg, lab, n_panels=12)
        )

    def test_dynamical_vs_quadrature(self):
        rng = np.random.default_rng(34)
        for _ in range(4):
            cfg = random_driven_config(rng)
            for lab in (StateLabel(1, 1), StateLabel(-1, -1)):
                breakdown = extract_phases(cfg, lab)
                quad = dynamical_phase_quadrature(cfg, lab, n_panels=10_000)
                assert circular_distance(fold_phase(quad), breakdown.dynamical) < 1e-8

    def test_floquet_residual(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            cfg = random_driven_config(rng)
            for lab in LABELS:
                assert floquet_residual(cfg, lab) < 1e-10

    def test_quasienergy_from_propagator_eigenvalue(self):
        # -arg of the one-period eigenvalue, lifted by the half-spin sign,
        # reproduces the quasienergy mod omega
        rng = np.random.default_rng(36)
        for _ in range(5):
            cfg = random_driven_config(rng)
            period = 2 * math.pi / cfg.omega
            labeled = label_eigenstates(
                eigensystem(build_rotating_hamiltonian(cfg)), cfg, regime="rotating"
            )
            u = propagator_exact(cfg, period)
            for lab in LABELS:
                vec = labeled.vector(lab)
                eigval = np.vdot(vec, u @ vec)
                quasi = (-np.angle(eigval) + math.pi) / period
                expected = closed_form_quasienergies(cfg, lab)
                assert (
                    abs(fold_phase((quasi - expected) * period)) < 1e-8
                )

    def test_zero_frequency_rejected(self):
        with pytest.raises(ZeroFrequency):
            extract_phases(DriveConfig(b=2.0, theta=1.0), StateLabel(1, 1))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(0.1, 10.0),
        st.floats(0.0, math.pi),
        st.floats(0.05, 3.0),
        st.floats(0.05, 4.0),
        st.sampled_from([0.0, math.pi]),
        st.sampled_from(LABELS),
    )
    def test_geometric_is_cyclic_closed_form_plus_pi(self, b, theta, t_lr, omega, phi, lab):
        """The PhaseBreakdown identity: total - dynamical exceeds
        aa_phase_closed by pi.  t_lr and omega are drawn in units of b, and
        above zero: decoupled sites have degenerate bands, and omega = 0 has
        no period."""
        cfg = DriveConfig(b=b, theta=theta, phi_r=-phi, omega=omega * b, t_lr=t_lr * b)
        geometric = extract_phases(cfg, lab).geometric
        assert circular_distance(geometric - aa_phase_closed(cfg, lab), math.pi) <= 1e-9

    def test_breakdown_identity_enforced(self):
        with pytest.raises(ValueError):
            PhaseBreakdown(total=1.0, dynamical=0.2, geometric=0.3, period=1.0)


def lab_frame_quadrature(cfg, label, n_panels=10_000):
    """Simpson quadrature of <psi(t)|H(t)|psi(t)> in the lab frame: the lab
    Hamiltonian at every node, on the rotated exact trajectory."""
    system = CyclicSystem.of(cfg)
    vec, es = system.labeled.vector(label), system.eig
    times = np.linspace(0.0, system.period, n_panels + 1)
    coeff = es.vectors.conj().T @ vec
    rot_frame = es.vectors @ (np.exp(-1j * np.outer(times, es.values)) * coeff).T
    psi = np.exp(-1j * np.outer(cfg.omega * times, SZ_TOTAL_DIAG)) * rot_frame.T
    hs = _lab_hamiltonian(cfg, s=cfg.omega * times)
    expval = np.real(np.einsum("ti,tij,tj->t", np.conj(psi), hs, psi))
    weights = np.ones(n_panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return -(system.period / n_panels) / 3.0 * float(np.dot(weights, expval))


def test_quadrature_matches_lab_frame_integrand(monkeypatch):
    # by the drive's rotation covariance the co-rotating integrand
    # <psi_rot|H(0)|psi_rot> is the lab one, node by node
    rng = np.random.default_rng(38)
    compared = set()
    for i in range(24):
        theta = (0.0, math.pi, *rng.uniform(0.0, math.pi, 4))[i % 6]
        cfg = DriveConfig(b=rng.uniform(0.5, 3.0), theta=theta,
                          phi_r=(0.0, -math.pi)[i % 2], omega=rng.uniform(0.4, 4.0),
                          t_lr=rng.uniform(0.05, 1.5))
        label = LABELS[i % 4]
        try:
            want = lab_frame_quadrature(cfg, label)
        except DrivenSpinError as exc:
            with pytest.raises(type(exc)):
                dynamical_phase_quadrature(cfg, label)
            continue
        assert abs(dynamical_phase_quadrature(cfg, label) - want) < 1e-12, cfg
        compared.add((cfg.phase_branch(), theta in (0.0, math.pi)))
        resolved = cfg, label
    assert compared == {(branch, pole) for branch in (0.0, math.pi)
                        for pole in (False, True)}
    built = []
    monkeypatch.setattr(evolution, "_lab_hamiltonian",
                        lambda *a, **k: built.append(_lab_hamiltonian(*a, **k)) or built[-1])
    dynamical_phase_quadrature(*resolved)
    assert [h.shape for h in built] == [(4, 4)]


def test_evolve_diagonalizes_once(monkeypatch, capsys):
    calls = []
    eigh_stack = spectra.eigh_stack

    def counting_eigh_stack(h):
        calls.append(np.shape(h))
        return eigh_stack(h)

    monkeypatch.setattr(spectra, "eigh_stack", counting_eigh_stack)
    argv = "evolve --b 2 --theta pi/3 --phi pi --omega 1.5 --t-lr 1 --m1 1 --m2 -1"
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert calls == [(4, 4)]


def test_evolve_error_estimate_tracks_deviation(capsys):
    """rk4_error_estimate, 16/15 max|U_n - U_2n| by step doubling, is the
    error of the n-step endpoint: within 5% of rk4_deviation wherever that
    rises above roundoff (1e-10), over resolved periods."""
    rng = np.random.default_rng(37)
    ratios = []
    for _ in range(40):
        argv = [
            "evolve", "--b", repr(rng.uniform(2.0, 10.0)),
            "--theta", repr(rng.uniform(0.1, math.pi - 0.1)),
            "--phi", "pi" if rng.integers(2) else "0", "--omega", repr(rng.uniform(0.2, 2.0)),
            "--t-lr", repr(rng.uniform(0.05, 3.0)), "--m1", "1", "--m2", "-1",
            "--rk4-steps", str(rng.integers(1000, 4000)),
        ]
        code = main(argv)
        out, err = capsys.readouterr()
        if code:  # too few steps for the period
            assert json.loads(err)["error"]["name"] == "NonConverged"
            continue
        diagnostics = json.loads(out)["diagnostics"]
        if diagnostics["rk4_deviation"] > 1e-10:
            ratios.append(diagnostics["rk4_error_estimate"] / diagnostics["rk4_deviation"])
    assert len(ratios) >= 25
    assert 0.95 <= min(ratios) and max(ratios) <= 1.05
