"""Spans and counters around moorealg's layers, installed from outside.

The package is not edited.  ``Tracer.install`` replaces selected
functions with wrappers that record a span (name, start, end, parent
span, task id) and rebinds every name under which another moorealg
module imported them, for example ``moduli.compose`` and
``noncomm.ps_compose``.  The hottest methods (ring multiplication and
the ring identity check) are only counted: a span there would become
the hot path.  Spans stay in memory and are written out by ``write``.

A layer is a module.  A layer's self time is the duration of its spans
minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# module -> functions recorded as spans named "<layer>.<function>".  Some
# back no metric of their own; they keep library time out of cli.self_s.
SPANNED = {
    "series": ("compose", "reversion", "derivative"),
    "moduli": (
        "act",
        "act_full",
        "canonicalize_char0",
        "canonicalize_dvr",
        "_dvr_reduce",
        "_digit_sweep",
        "orbit_invariant_char0",
        "equivalent",
        "degree_audit",
    ),
    "noncomm": (
        "derivation_apply",
        "apply_endo",
        "conjugate",
        "check_square_zero",
        "moore_mstar",
        "normalized_endo",
    ),
    "ainfty": ("hochschild_differential", "normalize_cochain", "dualize"),
    "hochschild": ("hh_closed_form", "weierstrass_factor", "hh_bruteforce"),
    "_linalg": ("echelon_rank", "mat_mul"),
    "cli": ("main",),
}

# (module, class, method) -> counter name; counted, never spanned
COUNTED = {
    ("rings", "RingElem", "__mul__"): "rings.mul_calls",
    ("rings", "RingElem", "inverse"): "rings.inverse_calls",
    ("rings", "CoeffRing", "__eq__"): "rings.ring_eq_calls",
    ("series", "PowerSeries", "__mul__"): "series.mul_calls",
}

# per-layer metric -> span name whose calls it counts
SPAN_COUNTS = {
    "series.compose_calls": "series.compose",
    "series.reversion_calls": "series.reversion",
    "moduli.dvr_reduce_calls": "moduli._dvr_reduce",
    "noncomm.derivation_apply_calls": "noncomm.derivation_apply",
    "ainfty.hochschild_differential_calls": "ainfty.hochschild_differential",
}

# per-layer metric -> span name whose outermost calls it times, child spans included
SPAN_TIMES = {
    "series.compose_s": "series.compose",
    "series.reversion_s": "series.reversion",
    "moduli.canonicalize_dvr_s": "moduli.canonicalize_dvr",
    "moduli.digit_sweep_s": "moduli._digit_sweep",
    "moduli.canonicalize_char0_s": "moduli.canonicalize_char0",
    "moduli.orbit_invariant_s": "moduli.orbit_invariant_char0",
    "moduli.act_full_s": "moduli.act_full",
    "noncomm.derivation_apply_s": "noncomm.derivation_apply",
    "noncomm.apply_endo_s": "noncomm.apply_endo",
    "noncomm.conjugate_s": "noncomm.conjugate",
    "ainfty.normalize_cochain_s": "ainfty.normalize_cochain",
    "ainfty.dualize_s": "ainfty.dualize",
    "hochschild.hh_closed_form_s": "hochschild.hh_closed_form",
    "hochschild.weierstrass_factor_s": "hochschild.weierstrass_factor",
    "hochschild.hh_bruteforce_s": "hochschild.hh_bruteforce",
    "linalg.echelon_rank_s": "linalg.echelon_rank",
}

LAYERS = ("series", "moduli", "noncomm", "ainfty", "hochschild", "linalg", "cli")


class Tracer:
    """Collects spans and counts for one process; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, task id]
        self.counts = Counter()
        self.task = -1
        self._stack = []
        self._undo = []

    # -- installation ----------------------------------------------------------

    def install(self, package: str = "moorealg"):
        for mod in SPANNED:
            importlib.import_module(f"{package}.{mod}")
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for mod, names in SPANNED.items():
            owner = sys.modules[f"{package}.{mod}"]
            for fn in names:
                orig = getattr(owner, fn)
                wrapper = self._span_wrapper(f"{mod.lstrip('_')}.{fn}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        for (mod, cls_name, meth), key in COUNTED.items():
            cls = getattr(sys.modules[f"{package}.{mod}"], cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._count_wrapper(key, orig))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.task)

        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def paused(self):
        """Drop whatever the body records (used around output checks)."""
        mark, saved = len(self.spans), Counter(self.counts)
        try:
            yield
        finally:
            del self.spans[mark:]
            self.counts.clear()
            self.counts.update(saved)

    # -- read-out --------------------------------------------------------------

    def totals(self) -> dict:
        """Every per-layer metric, summed over all recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {key: self.counts.get(key, 0) for key in COUNTED.values()}
        out.update({metric: 0 for metric in SPAN_COUNTS})
        out.update({metric: 0.0 for metric in SPAN_TIMES})
        out["moduli.sweep_probes"] = 0
        out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        count_of = {span: metric for metric, span in SPAN_COUNTS.items()}
        time_of = {span: metric for metric, span in SPAN_TIMES.items()}
        for i, (name, start, end, parent, _) in enumerate(spans):
            out[name.split(".")[0] + ".self_s"] += end - start - child_time[i]
            if name in count_of:
                out[count_of[name]] += 1
            if name == "moduli._dvr_reduce" and parent >= 0 and spans[parent][0] == "moduli._digit_sweep":
                out["moduli.sweep_probes"] += 1
            if name in time_of and not self._has_ancestor(i, name):
                out[time_of[name]] += end - start
        return out

    def _has_ancestor(self, i, name) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, task."""
        with open(path, "w") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, task]) + "\n")
