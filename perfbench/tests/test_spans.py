"""The tracer wraps every binding of a function and undoes it cleanly."""

import moorealg
from moorealg import CoeffRing, PowerSeries, moduli, noncomm, series

from spans import Tracer


def test_install_rebinds_imported_names_and_uninstall_restores():
    orig = series.compose
    tracer = Tracer()
    tracer.install()
    try:
        assert moduli.compose is not orig and noncomm.ps_compose is moduli.compose
        assert moorealg.compose is moduli.compose
        Q = CoeffRing("Q")
        u = PowerSeries(Q, {2: 1, 3: 1, 4: 2}, 6)
        moorealg.canonicalize_char0(u)
    finally:
        tracer.uninstall()
    assert series.compose is orig and moduli.compose is orig and noncomm.ps_compose is orig
    totals = tracer.totals()
    assert totals["series.compose_calls"] >= 2
    assert totals["moduli.canonicalize_char0_s"] > 0
    assert totals["rings.ring_eq_calls"] > 0
    # every compose ran inside canonicalize_char0, so compose time is part of it
    assert totals["series.compose_s"] <= totals["moduli.canonicalize_char0_s"]


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        ("moduli._digit_sweep", 0.0, 10.0, -1, 0),
        ("moduli._dvr_reduce", 1.0, 4.0, 0, 0),
        ("series.compose", 2.0, 3.0, 1, 0),
        ("moduli._dvr_reduce", 5.0, 6.0, -1, 0),
    ]
    totals = tracer.totals()
    assert totals["moduli.self_s"] == (10 - 3) + (3 - 1) + 1
    assert totals["series.self_s"] == 1
    assert totals["moduli.dvr_reduce_calls"] == 2
    assert totals["moduli.sweep_probes"] == 1
    assert totals["moduli.digit_sweep_s"] == 10


def test_paused_drops_what_the_body_records():
    tracer = Tracer()
    tracer.install()
    try:
        Q = CoeffRing("Q")
        a = Q.from_int(2)
        a * a
        with tracer.paused():
            a * a
            a * a
    finally:
        tracer.uninstall()
    assert tracer.counts["rings.mul_calls"] == 1
