"""Span tracer that wraps the program's layer boundaries from outside.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper
at every ``hurwitz_sos`` namespace that binds it: modules import each
other's functions by name (``search.hermitian_eig``,
``certificate.hurwitz_expand``, ``validation.eval_certificate_numeric``),
so patching the defining module alone would miss those calls.  Only the
functions the per-layer metrics name are wrapped; per-word helpers such
as ``least_rotation`` are called so often that wrapping them would cost
more than the work they do.

A span is ``[name, start_ns, end_ns, parent_index, call_id]``; spans are
kept in memory and written by the caller at the end.  Recording happens
only while ``active`` is set, which the runner sets around each timed
call, so oracle checks that reuse program functions leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from math import comb
from typing import Dict, List

# Layer boundaries, named ``<module>.<public name>`` after the module that
# defines them.
TARGETS = (
    "kernels.jacobi_eigh",
    "kernels.hurwitz_trace",
    "numeric.hermitian_eig",
    "numeric.psd_sqrt",
    "numeric.eval_certificate_numeric",
    "numeric.trace_hurwitz_numeric",
    "numeric.bmv_coefficients",
    "numeric.random_psd",
    "words.hurwitz_expand",
    "certificate.verify_certificate",
    "certificate.verify_against",
    "certificate.certificate_expansion",
    "certificate.psd_check_exact",
    "certificate.load_certificate",
    "search.feasibility_search",
    "validation.validate_certificate_trials",
    "validation.bmv_check_trials",
)

SEARCH = "search.feasibility_search"


def _hurwitz_trace(tracer, args, result):
    tracer.counts["kernels.hurwitz_trace.matmuls"] += comb(args["p"], args["r"]) * (args["p"] - 1)


def _jacobi_eigh(tracer, args, result):
    tracer.counts["kernels.jacobi_eigh.sweeps"] += int(result[4])


def _hermitian_eig(tracer, args, result):
    if tracer.inside(SEARCH):
        tracer.counts["search.eig_calls"] += 1


def _hurwitz_expand(tracer, args, result):
    tracer.counts["words.hurwitz_expand.placements"] += comb(args["p"], args["r"])
    tracer.counts["words.hurwitz_expand.classes"] += len(result)


def _psd_check_exact(tracer, args, result):
    tracer.counts["certificate.psd_check_exact.dim3"] += args["gram"].dimension ** 3


def _verify_against(tracer, args, result):
    if tracer.inside(SEARCH):
        tracer.counts["search.rounding_attempts"] += 1
        tracer.counts["search.rounding_accepted"] += int(result.ok)


def _feasibility_search(tracer, args, result):
    tracer.counts["search.iterations"] += int(result.iterations)


def _trial_rows(tracer, args, result):
    tracer.counts["validation.rows"] += len(result.rows)


HOOKS = {
    "kernels.hurwitz_trace": _hurwitz_trace,
    "kernels.jacobi_eigh": _jacobi_eigh,
    "numeric.hermitian_eig": _hermitian_eig,
    "words.hurwitz_expand": _hurwitz_expand,
    "certificate.psd_check_exact": _psd_check_exact,
    "certificate.verify_against": _verify_against,
    "search.feasibility_search": _feasibility_search,
    "validation.validate_certificate_trials": _trial_rows,
    "validation.bmv_check_trials": _trial_rows,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self.call_id = -1
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open above the current call."""
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "hurwitz_sos" or key.startswith("hurwitz_sos.")
        ]
        for target in TARGETS:
            module_name, attr = target.split(".")
            home = importlib.import_module(f"hurwitz_sos.{module_name}")
            fn = getattr(home, attr, None)
            if fn is None:
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def self_times(self, speed) -> Dict[str, Dict[str, float]]:
        """Per span name: call count and self time (span minus child spans).

        Times are taken at the nominal host speed: ``speed`` (a
        calibrate.HostSpeed) gives each span's speed factor and the
        sampling time that fell inside it, which is not the span's work.
        """
        net = []
        for _name, start, end, _parent, _cid in self.spans:
            scale, sampling = speed.scale(start, end)
            net.append((end - start - sampling, scale))
        child = [0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += net[index][0]
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            entry = out.setdefault(span[0], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            own, scale = net[index]
            entry["self_s"] += (own - child[index]) * scale / 1e9
        return out
