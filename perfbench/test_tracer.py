"""Span recording and self-time accounting of the traced run.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracer.py
"""

import pytest

import tracer


def _span(sid, name, start, end, parent=-1, thread=1, job=(0, 0)):
    return (sid, name, start, end, parent, job, thread, 0)


def test_self_time_subtracts_children():
    spans = [_span(1, "outer", 0.0, 10.0), _span(2, "inner", 2.0, 5.0, parent=1)]
    assert tracer.self_times(spans) == pytest.approx({1: 7.0, 2: 3.0})


def test_pool_threads_share_time_and_owner_waits():
    spans = [
        _span(3, "scan", 0.0, 10.0),
        _span(4, "cell", 1.0, 9.0, parent=3, thread=2),
        _span(5, "cell", 1.0, 5.0, parent=3, thread=3),
    ]
    self_s = tracer.self_times(spans)
    assert self_s == pytest.approx({3: 2.0, 4: 6.0, 5: 2.0})
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    import drivenspin
    from drivenspin import cli, geometry, spectra

    original = spectra.eigh_stack
    trace = tracer.Tracer()
    trace.install()
    try:
        assert geometry.eigh_stack is cli.eigh_stack is drivenspin.eigh_stack
        assert geometry.eigh_stack is not original
        trace.job = (0, 0)
        drivenspin.chern_lattice(
            drivenspin.DriveConfig(b=2.0, theta=0.0, t_lr=0.3), 20, 20, "adiabatic")
    finally:
        trace.uninstall()
    assert geometry.eigh_stack is cli.eigh_stack is spectra.eigh_stack is original
    names = {s[1] for s in trace.spans}
    assert {"qmodel.build", "spectra.eigh", "geometry.band_states", "geometry.flux"} <= names
    eigh = [s for s in trace.spans if s[1] == "spectra.eigh"]
    assert [s[7] for s in eigh] == [400]  # matrices diagonalized
