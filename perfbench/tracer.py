"""Spans around the public functions of faithfrac, recorded from outside.

``Tracer.install`` replaces every public function of the package's modules,
in every module that binds it (``faithfrac.search.verify`` and
``faithfrac.verifier.verify`` get the same wrapper), so calls between the
modules are spans too.  A span is [name, start, end, parent index, operation
id, exception name, info]; spans stay in a list until the run ends.  A span's
self time is its duration minus the durations of its direct children: the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from time import perf_counter

from workloads import lattice_size

MODULES = (
    "faithfrac", "faithfrac.numeric", "faithfrac.model", "faithfrac.verifier",
    "faithfrac.construct", "faithfrac.partition", "faithfrac.search", "faithfrac.cli",
)

# Per-layer metric prefix -> the public functions whose spans it sums.
GROUPS = {
    "verifier.verify": ("verifier.verify",),
    "verifier.partial_sums": ("verifier.partial_sums_in_ideal",),
    "verifier.naive": ("verifier.verify_naive",),
    "model.validate": ("model.validate",),
    "model.json": ("model.to_json", "model.from_json", "model.to_json_dict", "model.from_json_dict"),
    "model.coprime_shape": ("model.coprime_shape",),
    "numeric.is_prime": ("numeric.is_prime",),
    "numeric.mod_inverse": ("numeric.mod_inverse",),
    "construct.theorem1": ("construct.theorem1",),
    "construct.theorem4": ("construct.theorem4",),
    "construct.prop7": ("construct.prop7",),
    "construct.two_term": ("construct.two_term",),
    "construct.general_coprime": ("construct.general_coprime",),
    "partition.decompose": ("partition.decompose_partition",),
    "partition.t_set": ("partition.t_set",),
    "search.min_length": ("search.min_length_search",),
    "search.prop6": ("search.prop6_discrepancy_scan",),
}
_GROUP_OF = {f"faithfrac.{fn}": group for group, fns in GROUPS.items() for fn in fns}

VERIFY = "faithfrac.verifier.verify"
NAIVE = "faithfrac.verifier.verify_naive"
PARTIAL_SUMS = "faithfrac.verifier.partial_sums_in_ideal"
MIN_LENGTH = "faithfrac.search.min_length_search"


def _report_info(args, kwargs, report):
    d = args[0] if args else kwargs["d"]
    return [report.combos_examined, report.method, report.faithful, lattice_size(d)]


_INFO = {
    VERIFY: _report_info,
    NAIVE: _report_info,
    PARTIAL_SUMS: lambda args, kwargs, values: len(values),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for modname in MODULES:
            module = importlib.import_module(modname)
            for attr, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or not fn.__module__.startswith("faithfrac."):
                    continue
                if fn.__name__ not in getattr(sys.modules[fn.__module__], "__all__", ()):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(f"{fn.__module__}.{fn.__name__}", fn)
                setattr(module, attr, wrappers[fn])
                self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    def per_layer(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass over the workload, plus the time the
        top-level spans cover (``top_level_s``, for the coverage check)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(GROUPS, 0)
        self_s = dict.fromkeys(GROUPS, 0.0)
        named = {}
        verify_log_fraction = 0.0
        verify_fractions = 0
        cap_exceeded = mitm = combos = naive_combos = values = 0
        search_verifies = search_faithful = 0
        top_level_s = 0.0
        for i, (name, start, end, parent, _, error, info) in enumerate(spans):
            named[name] = named.get(name, 0) + 1
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent < 0:
                top_level_s += end - start
            group = _GROUP_OF.get(name)
            if group is not None:
                self_s[group] += end - start - child[i]
                if _GROUP_OF.get(parent_name) != group:
                    calls[group] += 1
            if name == VERIFY:
                cap_exceeded += error == "CapExceeded"
                if info is not None:
                    combos += info[0]
                    mitm += info[1] == "meet_in_middle"
                    if info[0] > 0:
                        verify_log_fraction += math.log(info[0] / info[3])
                        verify_fractions += 1
                if parent_name == MIN_LENGTH:
                    search_verifies += 1
                    search_faithful += info is not None and info[2]
            elif name == NAIVE and info is not None:
                naive_combos += info[0]
            elif name == PARTIAL_SUMS and info is not None:
                values += info
        out = {}
        for group in GROUPS:
            out[f"{group}.calls"] = calls[group] / passes
            out[f"{group}.self_s"] = self_s[group] / passes
        out["verifier.verify.combos"] = combos / passes
        out["verifier.verify.combos_per_s"] = _ratio(combos, self_s["verifier.verify"])
        out["verifier.verify.mitm_calls"] = mitm / passes
        out["verifier.verify.cap_exceeded"] = cap_exceeded / passes
        out["verifier.verify.enum_fraction"] = (
            math.exp(verify_log_fraction / verify_fractions) if verify_fractions else 0.0
        )
        out["verifier.partial_sums.values"] = values / passes
        out["verifier.naive.combos_per_s"] = _ratio(naive_combos, self_s["verifier.naive"])
        out["numeric.prime_hit_ratio"] = _ratio(
            named.get("faithfrac.numeric.next_prime_avoiding", 0),
            named.get("faithfrac.numeric.is_prime", 0),
        )
        out["search.min_length.verify_calls"] = search_verifies / passes
        out["search.min_length.faithful_ratio"] = _ratio(search_faithful, search_verifies)
        out["top_level_s"] = top_level_s / passes
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
