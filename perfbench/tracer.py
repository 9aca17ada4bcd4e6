"""Spans around the program's layer functions, recorded from outside it.

``Tracer.install()`` replaces each layer function listed in ``LAYERS`` at
every module binding under ``drivenspin`` (``eigh_stack`` is bound in
``spectra``, ``geometry``, ``cli`` and the package itself, for example) with
a wrapper that records a span: name, start, end, parent span, job id,
thread and a work count.  Spans stay in memory until the run ends.
``uninstall()`` puts the original functions back.

Self time is a span's duration minus the time its child spans cover.  Where
threads of one job run at once, each instant is shared equally between the
innermost spans active on each thread, so the self times of a job never sum
to more than its wall time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Bytes computed, not measured, per diagonalized 4x4 complex matrix: the
# input matrix, four float eigenvalues and the complex eigenvector matrix.
EIGH_BYTES_PER_MATRIX = 16 * 16 + 4 * 8 + 16 * 16


def _built_matrices(args, kwargs, result) -> int:
    return int(np.asarray(result).size // 16)


def _eigh_work(args, kwargs, result) -> int:
    return int(np.asarray(args[0]).size // 16)


def _flux_plaquettes(args, kwargs, result) -> int:
    s = np.shape(args[0])
    bands = s[3] if len(s) == 4 else 1
    return (s[0] - 1) * s[1] * bands


def _rk4_steps(args, kwargs, result) -> int:
    return int(args[2] if len(args) > 2 else kwargs["n_steps"])


def _scan_work(args, kwargs, result) -> tuple[int, int, int]:
    threads = kwargs.get("n_workers", args[7] if len(args) > 7 else 1)
    return len(result), sum(c.error is not None for c in result), int(threads)


#: span name -> (module, function names, work extractor(args, kwargs, result))
LAYERS = {
    "qmodel.build": ("drivenspin.qmodel", ("_lab_hamiltonian", "_rotating_hamiltonian"),
                     _built_matrices),
    "spectra.eigh": ("drivenspin.spectra", ("eigh_stack",), _eigh_work),
    "spectra.label": ("drivenspin.spectra", ("label_eigenstates", "band_order"), None),
    "geometry.wilson": ("drivenspin.geometry", ("berry_phase_wilson",), None),
    "geometry.band_states": ("drivenspin.geometry", (
        "_adiabatic_band_states", "_rotating_band_vectors", "_rotating_band_states"), None),
    "geometry.flux": ("drivenspin.geometry", ("lattice_flux",), _flux_plaquettes),
    "evolution.rk4": ("drivenspin.evolution", ("propagator_rk4",), _rk4_steps),
    "evolution.exact": ("drivenspin.evolution", ("propagator_exact",), None),
    "phasescan.scan": ("drivenspin.phasescan", ("scan_diagram",), _scan_work),
    "phasescan.cell": ("drivenspin.phasescan", ("_scan_cell",), None),
    "phasescan.classify": ("drivenspin.phasescan", ("classify_point",), None),
    "cli.parse": ("drivenspin.cli", ("build_parser",), None),
    "cli.handler": ("drivenspin.cli", (
        "cmd_spectrum", "cmd_berry", "cmd_chern", "cmd_evolve", "cmd_phase_diagram"), None),
    "cli.emit": ("drivenspin.cli", ("_emit",), None),
}


class Tracer:
    """Records spans of the wrapped layer functions of one worker process."""

    def __init__(self):
        # (id, name, start, end, parent id, job, thread, work)
        self.spans: list[tuple] = []
        self.job = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None):
        record = self.spans.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span belongs to the span that started the pool
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            count = work(args, kwargs, result) if work else 0
            record((sid, name, start, end, parent, self.job, threading.get_ident(), count))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function at every binding in ``drivenspin``."""
        for name, (module, functions, work) in LAYERS.items():
            for fname in functions:
                original = getattr(sys.modules[module], fname)
                inner = self._traced_parser(original) if name == "cli.parse" else original
                wrapper = self.wrap(name, inner, work)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "drivenspin":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def _traced_parser(self, build_parser):
        """build_parser whose parser also records its parse_args call."""

        def build():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        return build

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of every span, sharing overlapping threads equally.

    A span whose work runs on pool threads (the parent of a thread's
    outermost span) is waiting, not working, while that work runs.
    Jobs run one after another, so each job's spans are swept on their own.
    """
    by_job = defaultdict(list)
    for s in spans:
        by_job[s[5]].append(s)
    out: dict[int, float] = {}
    for job_spans in by_job.values():
        out.update(_sweep(job_spans))
    return out


def _sweep(spans: list[tuple]) -> dict[int, float]:
    parent = {s[0]: s[4] for s in spans}
    thread_of = {s[0]: s[6] for s in spans}
    events = sorted(
        ev for s in spans for ev in ((s[2], 1, s[0], s[6]), (s[3], 0, s[0], s[6]))
    )
    stacks: dict[int, list[int]] = defaultdict(list)
    out = dict.fromkeys(parent, 0.0)
    last = events[0][0]
    for t, is_start, sid, thread in events:
        if t > last:
            live = [st for st in stacks.values() if st]
            waiting = {
                parent[st[0]] for st in live
                if thread_of.get(parent[st[0]], thread_of[st[0]]) != thread_of[st[0]]
            }
            working = [st[-1] for st in live if st[-1] not in waiting]
            for inner in working:
                out[inner] += (t - last) / len(working)
        last = t
        if is_start:
            stacks[thread].append(sid)
        else:
            stacks[thread].remove(sid)
    return out
