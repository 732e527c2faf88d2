"""Timing wrappers around rnskit's layer functions, for the traced run.

Each rnskit module imports its callees' names into its own namespace
(``datapath`` calls its own ``to_rns``, ``tables`` its own
``find_moduli``), so a wrapper replaces the function on every loaded
rnskit module that holds it, not only on the defining one. Nothing under
``src/`` is edited; the wrappers live only in the process that installs
them.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

# (module, function) pairs wrapped; the span label is "module.function".
WRAPPED = (
    ("numbers", "ceil_nth_root"),
    ("numbers", "coprime_to_all"),
    ("numbers", "mod_inverse"),
    ("moduli", "find_moduli"),
    ("moduli", "baseline"),
    ("rns", "to_rns"),
    ("rns", "from_rns"),
    ("rns", "rns_add"),
    ("rns", "rns_sub"),
    ("rns", "rns_mul"),
    ("rns", "rns_pow"),
    ("datapath", "run"),
    ("datapath", "step"),
    ("datapath", "builtin_function1"),
    ("datapath", "builtin_function2"),
    ("datapath", "parse_program"),
    ("tables", "comparison_rows"),
    ("tables", "rows_to_csv"),
    ("tables", "rows_to_markdown"),
    ("cli", "main"),
)
# RnsContext validates its set and builds the reverse-conversion weights
# in __post_init__; that span is "rns.context_build".
CONTEXT_BUILD = "rns.context_build"

# Per-layer metric -> the span labels whose calls and self time it sums.
GROUPS = {
    "numbers.ceil_nth_root": ("numbers.ceil_nth_root",),
    "numbers.coprime_to_all": ("numbers.coprime_to_all",),
    "numbers.mod_inverse": ("numbers.mod_inverse",),
    "moduli.find_moduli": ("moduli.find_moduli",),
    "moduli.baseline": ("moduli.baseline",),
    "rns.context_build": (CONTEXT_BUILD,),
    "rns.to_rns": ("rns.to_rns",),
    "rns.from_rns": ("rns.from_rns",),
    "rns.channel_ops": ("rns.rns_add", "rns.rns_sub", "rns.rns_mul", "rns.rns_pow"),
    "datapath.run": ("datapath.run",),
    "datapath.step": ("datapath.step",),
    "datapath.program_build": (
        "datapath.builtin_function1",
        "datapath.builtin_function2",
        "datapath.parse_program",
    ),
    "tables.comparison_rows": ("tables.comparison_rows",),
    "tables.render": ("tables.rows_to_csv", "tables.rows_to_markdown"),
    "cli.main": ("cli.main",),
}

# Simulated statistics as (child, parent) span counts under datapath.run.
SIMULATED = {
    "datapath.sim_cycles": ("datapath.step", "datapath.run"),
    "datapath.add_activations": ("rns.rns_add", "datapath.step"),
    "datapath.sub_activations": ("rns.rns_sub", "datapath.step"),
    "datapath.mul_activations": ("rns.rns_mul", "datapath.step"),
    "datapath.forward_conversions": ("rns.to_rns", "datapath.step"),
    "datapath.reverse_conversions": ("rns.from_rns", "datapath.step"),
}

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "request")


class Tracer:
    """Spans and per-label counters for one pass of the traced run.

    ``request`` is the identifier stamped on spans opened from now on;
    run.py sets it before each request ("setup" before the set-up).
    """

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []
        self.request: int | str = "setup"
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.under: Counter = Counter()
        self.true_results: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0

    def install(self, package) -> None:
        """Wrap every WRAPPED function on each loaded module of ``package``."""
        prefix = package.__name__ + "."
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(prefix)]
        for module_name, attr in WRAPPED:
            original = getattr(sys.modules[prefix + module_name], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)
        context = sys.modules[prefix + "rns"].RnsContext
        context.__post_init__ = self._wrap(CONTEXT_BUILD, context.__post_init__)

    def _wrap(self, label: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, label, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                self.calls[label] += 1
                self.total_ns[label] += elapsed
                self.self_ns[label] += elapsed - frame[2]
                if parent is not None:
                    parent[2] += elapsed
                    self.under[label, parent[1]] += 1
                if self.keep_spans:
                    parent_id = None if parent is None else parent[0]
                    self.spans.append((span_id, label, start, end, parent_id, self.request))
            if result is True:
                self.true_results[label] += 1
            return result

        return traced

    def counts(self) -> tuple:
        """Everything that must repeat exactly across passes of one seed."""
        return self.calls, self.under, self.true_results

    def simulated(self) -> Counter:
        return Counter({name: self.under[pair] for name, pair in SIMULATED.items()})
