"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
runtime budget and prints one PASS line (visible with ``pytest -s``; the
pytest verdict itself is the pass/fail record otherwise).
"""

import json
import math
import time

import numpy as np
import pytest

import drivenspin as ds
from drivenspin.cli import main as cli_main
from drivenspin.errors import DegenerateGap, DrivenSpinError, OnTransition
from drivenspin.geometry import _adiabatic_band_states, _rotating_band_states
from drivenspin.phasescan import PhaseClass
from drivenspin.qmodel import _lab_hamiltonian, _rotating_hamiltonian
from drivenspin.spectra import _closed_energy_table, eigh_stack

B = 2.0


def _report(num, text):
    print(f"[acceptance] criterion {num}: PASS  ({text})")


def _cfg(theta=0.0, phi=0.0, omega=0.0, t_lr=0.0, b=B):
    return ds.DriveConfig(
        b=b, theta=theta, phi_l=0.0, phi_r=-phi, omega=omega, t_lr=t_lr
    )


def test_criterion_1_spectra_closed_vs_numeric():
    """Closed forms match numerical spectra to 1e-10 B on dense grids."""
    start = time.perf_counter()
    thetas = np.linspace(0.0, math.pi, 50)
    lams = np.linspace(0.0, 2.0, 50)
    worst_ad = 0.0
    for phi in (0.0, math.pi):
        for lam in lams:
            cfg = _cfg(phi=phi, t_lr=0.5 * B * lam)
            h = _lab_hamiltonian(cfg, thetas, 0.37)
            values, _ = eigh_stack(h)
            closed = np.sort(_closed_energy_table(cfg, "adiabatic", thetas), axis=-1)
            worst_ad = max(worst_ad, float(np.max(np.abs(values - closed))))
    assert worst_ad <= 1e-10 * B

    worst_rot = 0.0
    mus = np.linspace(0.0, 2.0, 10)
    lams = np.linspace(0.0, 2.0, 10)
    thetas = np.linspace(0.0, math.pi, 15)
    for phi in (0.0, math.pi):
        for mu in mus:
            for lam in lams:
                cfg = _cfg(phi=phi, omega=B * mu, t_lr=0.5 * B * lam)
                h = _rotating_hamiltonian(cfg, thetas)
                values, _ = eigh_stack(h)
                closed = np.sort(_closed_energy_table(cfg, "rotating", thetas), axis=-1)
                worst_rot = max(worst_rot, float(np.max(np.abs(values - closed))))
    assert worst_rot <= 1e-10 * B
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"max dev adiabatic {worst_ad:.2e}, rotating {worst_rot:.2e}, {elapsed:.2f} s")


def test_criterion_2_wilson_vs_closed_berry_phases():
    """Wilson loops match the closed-form loop phases to 1e-5 circularly."""
    start = time.perf_counter()
    thetas = np.linspace(0.08, math.pi - 0.08, 20)
    lams = np.linspace(0.07, 1.93, 20)  # avoids the lam = 0, 1 degeneracies
    worst = 0.0
    for phi in (0.0, math.pi):
        for lam in lams:
            cfg = _cfg(phi=phi, t_lr=0.5 * B * lam)
            for theta in thetas:
                for lab in ds.LABELS:
                    wilson = ds.berry_phase_wilson(cfg, float(theta), lab, n_steps=256)
                    closed = ds.berry_phase_closed(cfg, float(theta), lab)
                    worst = max(worst, ds.circular_distance(wilson, closed))
    assert worst <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"800 grid points x 4 bands, max circular distance {worst:.2e}, {elapsed:.2f} s")


def test_criterion_3_adiabatic_chern_reproduction():
    """Lattice invariants at 100x100 reproduce the adiabatic step function."""
    start = time.perf_counter()
    for lam in (0.3, 0.9, 1.5):
        report = ds.chern_lattice(_cfg(t_lr=0.5 * B * lam), 100, 100, "adiabatic")
        for m1, m2 in ds.LABELS:
            assert report.c1[ds.StateLabel(m1, m2)] == m1, (lam, m1, m2)
    for lam, expected_m1_factor in ((0.3, 1), (0.9, 1), (1.1, 0), (1.5, 0)):
        cfg = _cfg(phi=math.pi, t_lr=0.5 * B * lam)
        report = ds.chern_lattice(cfg, 100, 100, "adiabatic")
        for m1, m2 in ds.LABELS:
            assert report.c1[ds.StateLabel(m1, m2)] == m1 * expected_m1_factor
    with pytest.raises((DegenerateGap, OnTransition)):
        ds.chern_lattice(_cfg(phi=math.pi, t_lr=0.5 * B), 100, 100, "adiabatic")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"7 lattice runs + transition detection at lam=1, {elapsed:.2f} s")


def test_criterion_4_nonadiabatic_chern_agreement():
    """Lattice and closed invariants agree at random off-boundary points."""
    rng = np.random.default_rng(20240812)
    checked = 0
    while checked < 20:
        cfg = ds.DriveConfig(
            b=rng.uniform(0.5, 4.0),
            theta=0.0,
            phi_r=-math.pi,
            omega=rng.uniform(0.0, 4.0),
            t_lr=rng.uniform(0.05, 2.0),
        )
        if min(abs(abs(cfg.delta(m2)) - 1.0) for m2 in (+1, -1)) < 0.05:
            continue
        report = ds.chern_lattice(cfg, 100, 100, "nonadiabatic")
        for lab in ds.LABELS:
            assert report.c1[lab] == ds.chern_closed(cfg, lab, "nonadiabatic")
        checked += 1
    point = _cfg(phi=math.pi, omega=1.5, t_lr=1.0)
    assert ds.classify_point(point, method="lattice") == PhaseClass(0, 1)
    assert ds.classify_point(point, method="closed") == PhaseClass(0, 1)
    _report(4, "20 random points agree; (B=2, t=1, omega=1.5) is the (0,Z) class")


def test_criterion_5_phase_diagram_properties():
    """Accessible phases, the unreachable class, and the adiabatic column."""
    start = time.perf_counter()
    cells = ds.scan_diagram((0.0, 6.0), (0.0, 6.0), 1.0, math.pi, 60, 60)
    seen = {c.phase.render() for c in cells if c.phase is not None}
    assert {"(0,0)", "(Z,Z)", "(0,Z)"} <= seen
    assert not any(c.phase == PhaseClass(1, 0) for c in cells if c.phase)

    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(100_000):
        cfg = ds.DriveConfig(
            b=float(rng.uniform(1e-3, 8.0)),
            theta=0.0,
            phi_r=-math.pi,
            omega=float(rng.uniform(0.0, 8.0)),
            t_lr=float(rng.uniform(1e-6, 4.0)),
        )
        try:
            phase = ds.classify_point(cfg)
        except OnTransition:
            continue
        if phase == PhaseClass(1, 0):
            hits += 1
    assert hits == 0

    for b in np.linspace(0.05, 6.0, 60):
        cfg = ds.DriveConfig(b=float(b), theta=0.0, phi_r=-math.pi, omega=0.0, t_lr=1.0)
        lam = cfg.lam
        if abs(lam - 1.0) <= 1e-9:
            continue
        expected = 1 if lam < 1.0 else 0
        assert ds.classify_point(cfg) == PhaseClass(expected, expected)
        for m1, m2 in ds.LABELS:
            assert ds.chern_closed(cfg, ds.StateLabel(m1, m2), "adiabatic") == (
                m1 * expected
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(5, f"60x60 scan, 1e5 random draws with zero (Z,0), omega=0 column, {elapsed:.2f} s")


def test_criterion_6_evolution_cross_checks():
    """Exact vs RK4 propagators, the pi-offset identity, curvature link."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_dev = 0.0
    for _ in range(10):
        cfg = ds.DriveConfig(
            b=rng.uniform(0.5, 3.0),
            theta=rng.uniform(0.1, math.pi - 0.1),
            phi_r=-math.pi if rng.integers(2) else 0.0,
            omega=rng.uniform(0.4, 4.0),
            t_lr=rng.uniform(0.05, 1.5),
        )
        period = 2 * math.pi / cfg.omega
        u_rk4 = ds.propagator_rk4(cfg, period, 100_000)
        dev = float(np.max(np.abs(u_rk4 - ds.propagator_exact(cfg, period))))
        worst_dev = max(worst_dev, dev)
    assert worst_dev <= 1e-8

    worst_offset = 0.0
    for theta in (0.5, 1.2, 2.4):
        for omega in (0.8, 2.6):
            for t_lr in (0.3, 1.1):
                for phi in (0.0, math.pi):
                    cfg = _cfg(theta=theta, phi=phi, omega=omega, t_lr=t_lr)
                    for lab in ds.LABELS:
                        geometric = ds.extract_phases(cfg, lab).geometric
                        aa = ds.aa_phase_closed(cfg, lab)
                        worst_offset = max(
                            worst_offset,
                            abs(ds.circular_distance(geometric - aa, math.pi)),
                        )
    assert worst_offset <= 1e-6

    # curvature vs theta-derivative of the cyclic connection <Sz_total>;
    # with the package orientation (in-phase adiabatic Chern = +m1) the
    # consistent sign is F = +d<Sz>/dtheta
    worst_curv = 0.0
    eps = 1e-6
    for theta in (0.7, 1.4, 2.2):
        for phi, omega, t_lr in ((0.0, 1.7, 0.4), (math.pi, 1.5, 1.0)):
            cfg = _cfg(theta=theta, phi=phi, omega=omega, t_lr=t_lr)
            for lab in ds.LABELS:
                up = ds.rotating_sz_expectation(
                    ds.DriveConfig(
                        b=B, theta=theta + eps, phi_r=-phi, omega=omega, t_lr=t_lr
                    ),
                    lab,
                )
                dn = ds.rotating_sz_expectation(
                    ds.DriveConfig(
                        b=B, theta=theta - eps, phi_r=-phi, omega=omega, t_lr=t_lr
                    ),
                    lab,
                )
                numeric = ds.curvature_numeric(cfg, theta, 0.2, lab, "nonadiabatic")
                worst_curv = max(
                    worst_curv, abs(numeric - (up - dn) / (2 * eps))
                )
    assert worst_curv <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        6,
        f"RK4 max dev {worst_dev:.2e}, pi-offset residual {worst_offset:.2e}, "
        f"curvature link {worst_curv:.2e}, {elapsed:.2f} s",
    )


def test_criterion_7_property_suites():
    """Gauge invariance, quantization, sum rule and limit reductions."""
    rng = np.random.default_rng(55)

    # gauge invariance of both gauge-invariant primitives to 1e-12
    cfg = _cfg(phi=math.pi, t_lr=0.8)
    phis = 2 * math.pi * np.arange(96) / 96
    states, _ = _adiabatic_band_states(cfg, np.array([1.1]), phis)
    loop = states[0, :, :, 0]
    base = ds.wilson_loop_phase(loop)
    gauged = loop * np.exp(1j * rng.uniform(0, 2 * math.pi, size=(96, 1)))
    assert ds.circular_distance(ds.wilson_loop_phase(gauged), base) <= 1e-12

    cfg = _cfg(phi=math.pi, omega=1.5, t_lr=1.0)
    thetas = np.linspace(0.0, math.pi, 30)
    phis = 2 * math.pi * np.arange(30) / 30
    grid, _ = _rotating_band_states(cfg, thetas, phis)
    band = grid[:, :, :, 0]
    flux = ds.lattice_flux(band)
    gauged = band * np.exp(1j * rng.uniform(0, 2 * math.pi, size=(30, 30, 1)))
    assert abs(ds.lattice_flux(gauged) - flux) <= 1e-12

    # integer quantization and the band sum rule across sample configs
    for cfg, regime in (
        (_cfg(t_lr=0.7), "adiabatic"),
        (_cfg(phi=math.pi, t_lr=0.45), "adiabatic"),
        (_cfg(phi=math.pi, omega=1.5, t_lr=1.0), "nonadiabatic"),
        (_cfg(omega=3.0, t_lr=0.4), "nonadiabatic"),
    ):
        thetas = np.linspace(0.0, math.pi, 40)
        phis = 2 * math.pi * np.arange(40) / 40
        grid, _ = (
            _adiabatic_band_states(cfg, thetas, phis)
            if regime == "adiabatic"
            else _rotating_band_states(cfg, thetas, phis)
        )
        fluxes = [ds.lattice_flux(grid[:, :, :, k]) for k in range(4)]
        for f in fluxes:
            assert abs(f - round(f)) < 1e-9
        report = ds.chern_lattice(cfg, 40, 40, regime)
        assert report.band_sum() == 0
        assert [report.c1[lab] for lab in ds.LABELS] == [round(f) for f in fluxes]

    # omega -> 0 reduction of the quasienergies to the adiabatic energies
    for _ in range(50):
        cfg = ds.DriveConfig(
            b=rng.uniform(0.5, 4.0),
            theta=rng.uniform(0.0, math.pi),
            phi_r=-math.pi if rng.integers(2) else 0.0,
            omega=0.0,
            t_lr=rng.uniform(0.0, 2.0),
        )
        for lab in ds.LABELS:
            assert abs(
                ds.closed_form_quasienergies(cfg, lab)
                - ds.closed_form_adiabatic_energies(cfg, lab)
            ) <= 1e-12

    # mu = 0 curvature reduction, and lam = 0 loop-phase reduction
    for theta in np.linspace(0.0, math.pi, 17):
        for lab in ds.LABELS:
            cfg = _cfg(t_lr=0.9)
            na = ds.curvature_closed(cfg, theta, lab, "nonadiabatic")
            ad = ds.curvature_closed(cfg, theta, lab, "adiabatic")
            assert abs(na - ad) <= 1e-12
            anti = _cfg(phi=math.pi, t_lr=0.0)
            in_phase = _cfg(phi=0.0, t_lr=0.0)
            assert (
                ds.circular_distance(
                    ds.berry_phase_closed(anti, theta, lab),
                    ds.berry_phase_closed(in_phase, theta, lab),
                )
                <= 1e-12
            )
    _report(7, "gauge invariance, quantization, sum rule, limit reductions")


def test_criterion_8_cli_determinism_and_roundtrip(capsys, tmp_path):
    """Byte-identical CLI output and lossless JSON parameter round-trip."""
    argv = [
        "phase-diagram", "--b-min", "0", "--b-max", "6", "--omega-min", "0",
        "--omega-max", "6", "--n-b", "24", "--n-omega", "24",
    ]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert first.encode("utf-8") == second.encode("utf-8")

    argv = [
        "evolve", "--b", "2.2360679774997896", "--theta", "2pi/5",
        "--phi", "pi", "--omega", "0.69314718055994531", "--t-lr", "0.125",
    ]
    assert cli_main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert float(doc["params"]["b"]) == 2.2360679774997896
    assert float(doc["params"]["theta"]) == 2 * math.pi / 5
    assert float(doc["params"]["omega"]) == 0.69314718055994531
    assert float(doc["params"]["t_lr"]) == 0.125
    _report(8, "byte-identical repeats; JSON round-trip exact")
