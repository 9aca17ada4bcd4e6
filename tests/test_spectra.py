import importlib
import math
from dataclasses import replace
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenspin import (
    DegenerateGap,
    DriveConfig,
    DrivenSpinError,
    LABELS,
    NonConverged,
    NotHermitian,
    StateLabel,
    build_hamiltonian,
    build_rotating_hamiltonian,
    closed_form_adiabatic_energies,
    closed_form_quasienergies,
    eigensystem,
    eigh_stack,
    label_eigenstates,
)
from drivenspin import spectra
from drivenspin.qmodel import _lab_hamiltonian, _rotating_hamiltonian
from drivenspin.spectra import _SECTOR_MIN, DEGENERACY_FACTOR, _closed_energy_table


def random_hermitian(rng, n):
    x = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return 0.5 * (x + np.conj(np.swapaxes(x, 1, 2)))


class TestEigensystem:
    def test_diagonal_example(self):
        es = eigensystem(np.diag([1.0, -1.0, 2.0, 0.0]).astype(complex))
        assert np.allclose(es.values, [-1.0, 0.0, 1.0, 2.0], atol=1e-15)
        # eigenvectors are permuted identity columns
        expected_cols = [1, 3, 0, 2]
        for k, col in enumerate(expected_cols):
            assert np.allclose(es.vectors[:, k], np.eye(4)[:, col], atol=1e-15)

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(NotHermitian):
            eigensystem(bad)

    def test_random_batch_invariants(self):
        # reconstruction, orthonormality, ordering, and agreement with the
        # LAPACK eigenvalue oracle on a large random batch
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 10_000)
        values, vectors = eigh_stack(h)
        assert np.all(np.diff(values, axis=1) >= 0.0)
        oracle = np.linalg.eigvalsh(h)
        assert np.max(np.abs(values - oracle)) < 1e-12 * np.max(np.abs(h))
        recon = np.einsum("mik,mk,mjk->mij", vectors, values, np.conj(vectors))
        assert np.max(np.abs(recon - h)) < 1e-10 * np.max(np.abs(h))
        gram = np.einsum("mji,mjk->mik", np.conj(vectors), vectors)
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_residual_invariant(self):
        rng = np.random.default_rng(12)
        h = random_hermitian(rng, 1)[0]
        es = eigensystem(h)
        residual = np.max(np.abs(h @ es.vectors - es.vectors * es.values))
        assert residual < 1e-10 * np.max(np.abs(h))

    def test_gauge_fix_deterministic(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(rng, 1)[0]
        va, vb = eigensystem(h).vectors, eigensystem(h.copy()).vectors
        assert np.array_equal(va, vb)
        # the largest-magnitude component of each column is real positive
        for k in range(4):
            lead = va[np.argmax(np.abs(va[:, k])), k]
            assert lead.imag == pytest.approx(0.0, abs=1e-15)
            assert lead.real > 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solver", [eigensystem, eigh_stack])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_named_error_no_warning(solver, bad):
    h = np.diag([bad, 1.0, 2.0, 3.0]).astype(complex)
    with pytest.raises(NonConverged):
        solver(h)


def test_eigh_stack_refuses_a_stack_not_4x4():
    with pytest.raises(ValueError, match=r"trailing shape \(4, 4\), got \(2, 3, 3\)$"):
        eigh_stack(np.zeros((2, 3, 3)))


EPS = np.finfo(float).eps


def solve_and_route(h):
    """eigh_stack(h), and whether the sector solve took the whole stack."""
    taken = []
    real = spectra._sector_eigh

    def recording(*args):
        taken.append(real(*args))
        return taken[-1]

    with mock.patch.object(spectra, "_sector_eigh", recording):
        values, vectors = eigh_stack(h)
    return values, vectors, bool(taken) and all(taken)


def lapack_reference(h):
    """The LAPACK route written out: numpy's eigh, then the gauge rule."""
    values, vectors = np.linalg.eigh(h)
    idx = np.argmax(np.abs(vectors), axis=-2)
    lead = np.take_along_axis(vectors, idx[..., None, :], axis=-2)
    return values, vectors * (np.conj(lead) / np.abs(lead))


class TestSectorSolve:
    """Stacks of at least _SECTOR_MIN drive Hamiltonians commute with a site
    exchange and are solved as two 2x2 sector blocks; every other stack is
    LAPACK's, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(1e-3, 1e3),
        st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
        st.sampled_from([0.0, math.pi]),
        st.sampled_from(["lab", "rotating"]),
        st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
        st.floats(-10.0, 10.0),
        st.integers(_SECTOR_MIN, 3 * _SECTOR_MIN),
    )
    def test_matches_the_lapack_oracle(self, b, t_lr, phi, frame, omega, phi_l, n_theta):
        # theta rows from pole to pole, with the anti-phase equator crossing
        thetas = np.append(np.linspace(0.0, math.pi, n_theta), math.pi / 2)
        cfg = DriveConfig(b=b, theta=0.0, phi_l=phi_l, phi_r=phi_l - phi, omega=omega, t_lr=t_lr)
        if frame == "lab":
            h = _lab_hamiltonian(cfg, thetas[:, None], np.array([0.0, 2.5]))
        else:
            h = _rotating_hamiltonian(cfg, thetas)
        values, vectors, by_sectors = solve_and_route(h)
        assert by_sectors
        # max|H| per matrix; at omega = b a rotating pole matrix is 0
        scale = np.max(np.abs(h), axis=(-2, -1))[..., None]
        assert np.all(np.diff(values, axis=-1) >= 0.0)
        assert np.all(np.abs(values - np.linalg.eigvalsh(h)) <= 32 * EPS * scale)
        recon = np.einsum("...ik,...k,...jk->...ij", vectors, values, np.conj(vectors))
        assert np.all(np.abs(recon - h) <= 16 * EPS * scale[..., None])
        gram = np.einsum("...ji,...jk->...ik", np.conj(vectors), vectors)
        assert np.max(np.abs(gram - np.eye(4))) < 16 * EPS
        # the gauge rule: a largest-magnitude component is real positive (the
        # gauge's own rounding can tip a tie of magnitudes by an ulp)
        mags = np.abs(vectors)
        leads = mags >= np.max(mags, axis=-2, keepdims=True) - 1e-15
        real_positive = (vectors.real > 0.0) & (np.abs(vectors.imag) <= 1e-15)
        assert np.all(np.any(leads & real_positive, axis=-2))

    @pytest.mark.parametrize(
        "stack",
        [
            # phi_l - phi_r = 1e-10: the in-phase branch within PHASE_BRANCH_TOL,
            # but no exchange commutes with it to roundoff
            lambda: _lab_hamiltonian(
                DriveConfig(b=2.0, theta=0.0, phi_r=1e-10, t_lr=0.4),
                np.linspace(0.0, math.pi, 64)[:, None],
                np.linspace(0.0, 2 * math.pi, 40)[None, :],
            ),
            lambda: random_hermitian(np.random.default_rng(21), 4 * _SECTOR_MIN),
            # a commuting stack one matrix below the size rule
            lambda: _rotating_hamiltonian(
                DriveConfig(b=2.0, theta=0.0, phi_r=-math.pi, omega=1.5, t_lr=0.45),
                np.linspace(0.0, math.pi, _SECTOR_MIN - 1),
            ),
            # a whole commuting chunk, then a chunk that commutes with no exchange
            lambda: np.concatenate([
                _rotating_hamiltonian(
                    DriveConfig(b=2.0, theta=0.0, phi_r=-math.pi, omega=1.5, t_lr=0.45),
                    np.linspace(0.0, math.pi, spectra._SECTOR_CHUNK),
                ),
                random_hermitian(np.random.default_rng(22), 1),
            ]),
        ],
        ids=["off_branch_1e-10", "random_hermitian", "below_sector_min", "last_chunk_off"],
    )
    def test_other_stacks_are_lapacks_bit_for_bit(self, stack):
        h = stack()
        values, vectors, by_sectors = solve_and_route(h)
        assert not by_sectors
        want_values, want_vectors = lapack_reference(h)
        assert np.array_equal(values, want_values) and np.array_equal(vectors, want_vectors)


class TestClosedForms:
    def test_in_phase_example(self):
        cfg = DriveConfig(b=2.0, theta=0.4, t_lr=1.0)
        assert closed_form_adiabatic_energies(cfg, StateLabel(1, 1)) == -2.0

    def test_anti_phase_gap_closure(self):
        # lam=1 at theta=0: sqrt(1 + 1 - 2) = 0 for the (+1, +1) band
        cfg = DriveConfig(b=2.0, theta=0.0, phi_r=-math.pi, t_lr=1.0)
        assert closed_form_adiabatic_energies(cfg, StateLabel(1, 1)) == 0.0

    def test_anti_phase_lam0_reduction(self):
        rng = np.random.default_rng(14)
        for theta in rng.uniform(0, math.pi, 5):
            cfg = DriveConfig(b=2.0, theta=theta, phi_r=-math.pi, t_lr=0.0)
            for m1, m2 in LABELS:
                e = closed_form_adiabatic_energies(cfg, StateLabel(m1, m2))
                assert e == pytest.approx(-m1 * cfg.b / 2, abs=1e-15)

    def test_quasienergy_omega0_equals_adiabatic(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            phi_r = -math.pi if rng.integers(2) else 0.0
            cfg = DriveConfig(
                b=rng.uniform(0.5, 4),
                theta=rng.uniform(0, math.pi),
                phi_r=phi_r,
                t_lr=rng.uniform(0, 2),
            )
            for lab in LABELS:
                assert closed_form_quasienergies(cfg, lab) == pytest.approx(
                    closed_form_adiabatic_energies(cfg, lab), abs=1e-12
                )

    def test_quasienergy_anti_phase_example(self):
        # b=2, t_lr=1, omega=1.5: Delta_+ = 1.75, Delta_- = -0.25, and at
        # the equator the quasienergy is -m1 sqrt(1 + Delta^2)
        cfg = DriveConfig(b=2.0, theta=math.pi / 2, phi_r=-math.pi, omega=1.5, t_lr=1.0)
        for m1, m2 in LABELS:
            d = cfg.delta(m2)
            want = -m1 * math.sqrt(1.0 + d * d)
            got = closed_form_quasienergies(cfg, StateLabel(m1, m2))
            assert got == pytest.approx(want, abs=1e-15)

    def test_quasienergy_in_phase_example(self):
        # b=2, omega=3, no tunneling, equator: -m1 sqrt(3.25), checked
        # against the numerical rotating-frame diagonalization
        cfg = DriveConfig(b=2.0, theta=math.pi / 2, omega=3.0, t_lr=0.0)
        es = eigensystem(build_rotating_hamiltonian(cfg))
        for m1, m2 in LABELS:
            want = -m1 * math.sqrt(3.25)
            assert closed_form_quasienergies(cfg, StateLabel(m1, m2)) == pytest.approx(
                want, abs=1e-15
            )
            assert np.min(np.abs(es.values - want)) < 1e-12

    def test_four_band_sum_vanishes(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            phi_r = -math.pi if rng.integers(2) else 0.0
            cfg = DriveConfig(
                b=rng.uniform(0.5, 4),
                theta=rng.uniform(0, math.pi),
                phi_r=phi_r,
                omega=rng.uniform(0, 4),
                t_lr=rng.uniform(0, 2),
            )
            total_ad = sum(closed_form_adiabatic_energies(cfg, lab) for lab in LABELS)
            total_rot = sum(closed_form_quasienergies(cfg, lab) for lab in LABELS)
            assert abs(total_ad) < 1e-12 * cfg.b
            assert abs(total_rot) < 1e-12 * cfg.b

    def test_closed_vs_numeric_grid(self):
        # closed forms match the sorted numerical spectrum on a parameter grid
        for phi_r in (0.0, -math.pi):
            for theta in np.linspace(0.0, math.pi, 12):
                for t_lr in np.linspace(0.0, 2.0, 11):
                    cfg = DriveConfig(b=2.0, theta=theta, phi_r=phi_r, t_lr=t_lr)
                    vals = np.linalg.eigvalsh(build_hamiltonian(cfg, 0.7))
                    closed = sorted(
                        closed_form_adiabatic_energies(cfg, lab) for lab in LABELS
                    )
                    assert np.max(np.abs(vals - closed)) < 1e-10 * cfg.b

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "closed_form,drive",
        [
            # mu = omega / b overflows: inf - inf under the root gives nan
            (closed_form_quasienergies, {"omega": 1e10}),
            # lam = 2 t_lr / b overflows in both regimes
            (closed_form_quasienergies, {"t_lr": 1e10, "phi_r": -math.pi}),
            (closed_form_adiabatic_energies, {"t_lr": 1e10, "phi_r": -math.pi}),
            # in phase, -b/2 (m1 + m2 lam) is -inf
            (closed_form_adiabatic_energies, {"t_lr": 1e10}),
        ],
    )
    def test_overflow_raises_non_converged(self, closed_form, drive):
        cfg = DriveConfig(b=1e-300, theta=1.0, **drive)
        with pytest.raises(NonConverged):
            closed_form(cfg, StateLabel(1, 1))


class TestLabeling:
    def test_success_case(self):
        cfg = DriveConfig(b=2.0, theta=math.pi / 3, phi_r=-math.pi, t_lr=0.6)
        labeled = label_eigenstates(eigensystem(build_hamiltonian(cfg, 0.0)), cfg)
        assert set(labeled.states) == set(LABELS)
        h = build_hamiltonian(cfg, 0.0)
        for lab in LABELS:
            energy, vec = labeled.states[lab]
            assert energy == pytest.approx(
                closed_form_adiabatic_energies(cfg, lab), abs=1e-10
            )
            assert np.max(np.abs(h @ vec - energy * vec)) < 1e-10

    def test_in_phase_lam1_degenerate(self):
        cfg = DriveConfig(b=2.0, theta=0.8, t_lr=1.0)  # values -2, 0, 0, 2
        es = eigensystem(build_hamiltonian(cfg, 0.0))
        with pytest.raises(DegenerateGap):
            label_eigenstates(es, cfg)

    def test_anti_phase_equator_degenerate(self):
        cfg = DriveConfig(b=2.0, theta=math.pi / 2, phi_r=-math.pi, t_lr=1.0)
        es = eigensystem(build_hamiltonian(cfg, 0.0))
        with pytest.raises(DegenerateGap):
            label_eigenstates(es, cfg)

    def test_rotating_regime(self):
        cfg = DriveConfig(b=2.0, theta=1.0, phi_r=-math.pi, omega=1.5, t_lr=1.0)
        labeled = label_eigenstates(
            eigensystem(build_rotating_hamiltonian(cfg)), cfg, regime="rotating"
        )
        for lab in LABELS:
            assert labeled.energy(lab) == pytest.approx(
                closed_form_quasienergies(cfg, lab), abs=1e-10
            )

    def test_mismatched_spectrum_rejected(self):
        # an eigensystem from different parameters cannot be labeled
        from drivenspin import AmbiguousMatch

        cfg_solved = DriveConfig(b=2.0, theta=0.9, phi_r=-math.pi, t_lr=0.8)
        cfg_asked = DriveConfig(b=2.0, theta=0.9, phi_r=-math.pi, t_lr=0.3)
        es = eigensystem(build_hamiltonian(cfg_solved, 0.0))
        with pytest.raises(AmbiguousMatch):
            label_eigenstates(es, cfg_asked)


@pytest.mark.parametrize("module", ["geometry", "phasescan", "cli"])
def test_labelling_rule_lives_in_spectra(module):
    """The labelling thresholds and the unchecked closed-energy table are read
    only in ``spectra``; ``cli`` keeps the checked table for ``spectrum``."""
    mod = importlib.import_module(f"drivenspin.{module}")
    for name in ("DEGENERACY_FACTOR", "RESIDUAL_FACTOR", "_closed_energies"):
        assert not hasattr(mod, name), f"drivenspin.{module}.{name}"


def brute_force_labels(es, cfg, regime):
    """Reference labeling: search all 24 label-to-column assignments.

    Returns the column of each label (LABELS order) or the error name.
    """
    values = es.values
    if np.min(np.diff(values)) < DEGENERACY_FACTOR * cfg.b:
        return "DegenerateGap"
    try:
        if regime == "adiabatic":
            closed = [closed_form_adiabatic_energies(cfg, lab) for lab in LABELS]
        else:
            closed = [closed_form_quasienergies(cfg, lab) for lab in LABELS]
    except NonConverged:
        return "NonConverged"
    costs = sorted(
        (sum(abs(values[p[k]] - closed[k]) for k in range(4)), p)
        for p in permutations(range(4))
    )
    (best_cost, best), (second_cost, _) = costs[0], costs[1]
    if second_cost - best_cost < 1e-12 * cfg.b:
        return "AmbiguousMatch"
    if max(abs(values[best[k]] - closed[k]) for k in range(4)) > 1e-8 * cfg.b:
        return "AmbiguousMatch"
    return list(best)


@st.composite
def labeling_cases(draw):
    """(eigensystem, cfg, regime), with draws near band crossings and
    spectra solved at parameters other than the ones asked about."""
    tiny = st.floats(-300.0, 0.0).map(lambda e: 10.0**e)
    b = draw(st.one_of(st.floats(1e-3, 10.0), tiny))
    theta = draw(st.floats(0.0, math.pi))
    t_lr = draw(st.floats(0.0, 5.0))
    omega = draw(st.floats(0.0, 10.0))
    phi = draw(st.sampled_from([0.0, math.pi]))
    regime = draw(st.sampled_from(["adiabatic", "rotating"]))
    eps = draw(st.sampled_from([0.0, 1e-10, -1e-7, 5e-7, 2e-6, -1e-5, 1e-3]))
    near = draw(st.sampled_from([None, "pole", "equator", "x=1"]))
    if near == "pole":
        theta = draw(st.sampled_from([abs(eps), math.pi - abs(eps)]))
    elif near == "equator":
        theta = math.pi / 2 + eps
    elif near == "x=1":
        if regime == "adiabatic":
            t_lr = 0.5 * b * (1.0 + eps)  # lam = 1
        else:
            omega = b * (1.0 + eps) + (2.0 * t_lr if phi else 0.0)  # mu or Delta_- = 1
    cfg = DriveConfig(b=b, theta=theta, phi_r=-phi, omega=omega, t_lr=t_lr)
    field = draw(st.sampled_from(["b", "theta", "t_lr", "omega"]))
    shift = draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-9, -1e-7, 1e-4, 0.1]))
    value = getattr(cfg, field) * (1.0 + shift)
    solved = replace(cfg, **{field: min(value, math.pi) if field == "theta" else value})
    if regime == "adiabatic":
        h = build_hamiltonian(solved, draw(st.floats(0.0, 2 * math.pi)))
    else:
        h = build_rotating_hamiltonian(solved)
    return eigensystem(h), cfg, regime


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(labeling_cases())
def test_labeling_matches_brute_force(case):
    """The sort-order rule names the same columns, or fails by the same name,
    as the search over all 24 assignments."""
    es, cfg, regime = case
    expected = brute_force_labels(es, cfg, regime)
    try:
        labeled = label_eigenstates(es, cfg, regime)
    except DrivenSpinError as exc:
        assert type(exc).__name__ == expected
        return
    columns = [int(np.flatnonzero(es.values == labeled.energy(lab))[0]) for lab in LABELS]
    assert columns == expected
    for lab, col in zip(LABELS, columns):
        assert np.array_equal(labeled.vector(lab), es.vectors[:, col])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.1, 10.0),
    st.floats(0.0, math.pi),
    st.floats(0.0, 3.0),
    st.floats(0.0, 4.0),
    st.sampled_from([0.0, math.pi]),
    st.floats(0.0, 2 * math.pi),
)
def test_closed_spectra_match_numeric(b, theta, t_lr, omega, phi, varphi):
    """Both Hamiltonians' eigenvalues are their closed forms to 1e-10 b, the
    lab frame at any drive phase; t_lr and omega are drawn in units of b."""
    cfg = DriveConfig(b=b, theta=theta, phi_r=-phi, omega=omega * b, t_lr=t_lr * b)
    for h, regime in (
        (_lab_hamiltonian(cfg, s=varphi), "adiabatic"),
        (_rotating_hamiltonian(cfg), "rotating"),
    ):
        values, _ = eigh_stack(h)
        closed = np.sort(_closed_energy_table(cfg, regime))
        assert np.max(np.abs(values - closed)) <= 1e-10 * b
