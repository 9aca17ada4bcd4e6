"""Seeded job lists of the four benchmark workloads.

A workload is a fixed job list drawn from ``(seed, workload)``; a run
repeats it in passes.  Each job has its own parameter draw.  Draws closer
than a fixed margin to a transition (lam, mu or |Delta+-| near 1), or whose
closed-form levels come closer than ``MIN_GAP * b`` on the job's theta grid,
are rejected, so every job has a well-defined expected outcome.
Phase-diagram ranges are not filtered: the checker accepts either outcome
for cells near a transition or a crossing.  Grids never use an odd
``n_theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from checker import MIN_GAP, Point, min_gap, transition_distance

WORKLOADS = ("interactive", "lattice", "propagate", "diagram")

TRANSITION_MARGIN = 0.05
BERRY_THETAS = np.linspace(0.02, math.pi - 0.02, 50)  # the CLI's default rows
RK4_TOL_2000 = 1e-5  # default --rk4-steps, not an acceptance tolerance
RK4_TOL_100K = 1e-8  # acceptance criterion 6
CLASSIFY_POINTS = 25_000

#: Nominal seconds per pass over the job list: a run of S seconds makes
#: round(S / PASS_SECONDS) passes, at least three.  The values are roughly
#: one pass's time, output checks included, on a 2-vCPU shared VM (Python
#: 3.11, numpy 2.4), set lower for lattice and diagram, whose best latencies
#: vary most from run to run, so that they get more passes.
PASS_SECONDS = {"interactive": 8.5, "lattice": 3.4, "propagate": 2.0, "diagram": 2.9}
#: Draws of each README command per interactive job list.
INTERACTIVE_DRAWS = 6


@dataclass
class Job:
    """One benchmark job: a CLI argv or a library call, plus its expectation."""

    kind: str
    command: str | None = None  # CLI subcommand; None for a library call
    argv: list[str] | None = None
    point: Point | None = None
    regime: str = "adiabatic"
    size: int = 0
    label: tuple[int, int] = (1, 1)
    rk4_tol: float = RK4_TOL_2000
    rk4_steps: int = 0
    fmt: str = "json"
    method: str = "closed"
    expect_error: tuple[str, ...] = ()
    points: list[Point] = field(default_factory=list)


def _cli(kind: str, args: list[str], point: Point | None = None, **kw) -> Job:
    return Job(kind, command=args[0], argv=args, point=point, **kw)


def _f(x: float) -> str:
    return repr(float(x))


def _phi(p: Point) -> list[str]:
    return ["--phi", "pi" if p.anti else "0"]


def _draw(rng, make, ok) -> Point:
    for _ in range(10_000):
        p = make()
        if ok(p):
            return p
    raise RuntimeError("no acceptable parameter draw")


def _adiabatic_point(rng, thetas) -> Point:
    def make():
        b = rng.uniform(0.5, 4.0)
        return Point(b, 0.5 * b * rng.uniform(0.07, 1.93), anti=bool(rng.integers(2)))

    return _draw(
        rng,
        make,
        lambda p: abs(p.lam - 1.0) >= TRANSITION_MARGIN
        and min_gap(p, "adiabatic", thetas) >= MIN_GAP * p.b,
    )


def _driven_point(rng, thetas) -> Point:
    def make():
        return Point(
            rng.uniform(0.5, 4.0),
            rng.uniform(0.05, 2.0),
            rng.uniform(0.2, 4.0),
            anti=bool(rng.integers(2)),
        )

    return _draw(
        rng,
        make,
        lambda p: transition_distance(p) >= TRANSITION_MARGIN
        and min_gap(p, "rotating", thetas) >= MIN_GAP * p.b,
    )


def _evolve_point(rng) -> Point:
    # acceptance criterion 6 ranges
    def make():
        return Point(
            rng.uniform(0.5, 3.0),
            rng.uniform(0.05, 1.5),
            rng.uniform(0.4, 4.0),
            anti=bool(rng.integers(2)),
            theta=rng.uniform(0.1, math.pi - 0.1),
        )

    return _draw(rng, make, lambda p: min_gap(p, "rotating", p.theta) >= MIN_GAP * p.b)


def spectrum(rng) -> Job:
    p = _adiabatic_point(rng, np.linspace(0.0, math.pi, 200))
    argv = ["spectrum", "--b", _f(p.b), "--t-lr", _f(p.t_lr), *_phi(p), "--theta-steps", "200"]
    return _cli("spectrum", argv, p, size=200)


def berry_adiabatic(rng) -> Job:
    p = _adiabatic_point(rng, BERRY_THETAS)
    argv = ["berry", "--b", _f(p.b), "--t-lr", _f(p.t_lr), *_phi(p), "--theta-steps", "50"]
    return _cli("berry_adiabatic", argv, p, size=50)


def berry_nonadiabatic(rng) -> Job:
    p = _driven_point(rng, BERRY_THETAS)
    argv = ["berry", "--b", _f(p.b), "--t-lr", _f(p.t_lr), *_phi(p),
            "--omega", _f(p.omega), "--regime", "nonadiabatic", "--theta-steps", "50"]
    return _cli("berry_nonadiabatic", argv, p, regime="nonadiabatic", size=50)


def chern(rng, regime: str, n: int) -> Job:
    thetas = np.linspace(0.0, math.pi, n)
    p = _adiabatic_point(rng, thetas) if regime == "adiabatic" else _driven_point(rng, thetas)
    argv = ["chern", "--b", _f(p.b), "--t-lr", _f(p.t_lr), *_phi(p),
            "--omega", _f(p.omega), "--regime", regime,
            "--n-theta", str(n), "--n-phi", str(n)]
    return _cli(f"chern_{regime}_{n}", argv, p, regime=regime)


def evolve(rng, steps: int = 2000) -> Job:
    p = _evolve_point(rng)
    label = (int(rng.choice((-1, 1))), int(rng.choice((-1, 1))))
    argv = ["evolve", "--b", _f(p.b), "--theta", _f(p.theta), *_phi(p),
            "--omega", _f(p.omega), "--t-lr", _f(p.t_lr),
            "--m1", str(label[0]), "--m2", str(label[1]), "--rk4-steps", str(steps)]
    tol = RK4_TOL_100K if steps >= 100_000 else RK4_TOL_2000
    return _cli(f"evolve_{steps}", argv, p, label=label, rk4_tol=tol)


def phase_diagram(rng, n: int, fmt: str = "json", method: str = "closed") -> Job:
    p = Point(1.0, rng.uniform(0.5, 1.5), anti=True)
    b_max, w_max = rng.uniform(4.0, 8.0), rng.uniform(4.0, 8.0)
    args = ["phase-diagram", "--b-min", "0", "--b-max", _f(b_max), "--omega-min", "0",
            "--omega-max", _f(w_max), "--n-b", str(n), "--n-omega", str(n),
            "--t-lr", _f(p.t_lr), "--phi", "pi", "--method", method]
    job = _cli(f"phase_diagram_{method}_{n}_{fmt}", args, p, size=n * n, fmt=fmt,
               method=method)
    job.argv = ["--format", fmt, "--threads", "1", *args]
    return job


def with_threads(job: Job, threads: int) -> Job:
    """The same scan with ``threads`` scan workers."""
    argv = [*job.argv[:3], str(threads), *job.argv[4:]]
    return replace(job, kind=f"{job.kind}_t{threads}", argv=argv)


def chern_at_transition(rng) -> Job:
    b = rng.uniform(0.5, 4.0)
    argv = ["chern", "--b", _f(b), "--t-lr", _f(0.5 * b), "--phi", "pi"]
    return _cli("chern_lam1_error", argv, expect_error=("DegenerateGap", "OnTransition"))


def evolve_zero_frequency(rng) -> Job:
    argv = ["evolve", "--b", _f(rng.uniform(0.5, 3.0)), "--theta", "pi/3",
            "--omega", "0", "--t-lr", _f(rng.uniform(0.05, 1.5))]
    return _cli("evolve_omega0_error", argv, expect_error=("ZeroFrequency",))


def propagate_library(rng) -> Job:
    return Job("propagate_library", point=_evolve_point(rng), rk4_steps=100_000)


def classify_library(rng) -> Job:
    pts: list[Point] = []
    while len(pts) < CLASSIFY_POINTS:
        # acceptance criterion 5 ranges, both drive branches
        n = CLASSIFY_POINTS
        batch = zip(rng.uniform(1e-3, 8.0, n), rng.uniform(1e-6, 4.0, n),
                    rng.uniform(0.0, 8.0, n), rng.integers(2, size=n))
        pts += [p for p in (Point(b, t, w, bool(a)) for b, t, w, a in batch)
                if transition_distance(p) >= TRANSITION_MARGIN]
    return Job("classify_library", points=pts[:CLASSIFY_POINTS])


def warmup_job(workload: str, seed: int) -> Job:
    """The untimed job that runs before the job list."""
    rng = np.random.default_rng([seed % 2**32, WORKLOADS.index(workload), 0])
    warm = {"interactive": spectrum, "lattice": lambda r: chern(r, "adiabatic", 100),
            "propagate": evolve, "diagram": lambda r: phase_diagram(r, 60)}
    return warm[workload](rng)


def job_list(workload: str, seed: int, threads: int = 2) -> list[Job]:
    """The workload's job list for ``seed``, in the order it runs."""
    rng = np.random.default_rng([seed % 2**32, WORKLOADS.index(workload), 1])
    if workload == "interactive":
        makers = [spectrum, berry_adiabatic, berry_nonadiabatic,
                  lambda r: chern(r, "adiabatic", 100), lambda r: chern(r, "nonadiabatic", 100),
                  evolve, lambda r: phase_diagram(r, 60)]
        jobs = [make(rng) for make in makers for _ in range(INTERACTIVE_DRAWS)]
        jobs += [chern_at_transition(rng), evolve_zero_frequency(rng)]
        return [jobs[i] for i in rng.permutation(len(jobs))]
    if workload == "lattice":
        scan = phase_diagram(rng, 10, method="lattice")
        return [chern(rng, "adiabatic", 400), chern(rng, "nonadiabatic", 400),
                with_threads(scan, 1), with_threads(scan, threads)]
    if workload == "propagate":
        return [evolve(rng, 100_000), propagate_library(rng),
                evolve(rng, 100_000), propagate_library(rng)]
    if workload == "diagram":
        return [phase_diagram(rng, 200, "csv"), phase_diagram(rng, 200, "json"),
                *(classify_library(rng) for _ in range(4))]
    raise ValueError(f"unknown workload {workload!r}")
