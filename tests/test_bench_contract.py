"""The benchmark's traced run must keep working against the library.

benchmarks/tracing.py wraps rnskit functions by module and name, and the
traced run derives the simulated datapath statistics from how often
those wrappers nest. These tests read the benchmark's own modules, change
nothing in them, and fail if a library refactor silently breaks that.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"

# Runs in a child process: Tracer.install rewires rnskit's module globals
# and must not leak into the other tests.
TRACED_PROGRAMS = """
import json

import rnskit
import rnskit.cli
from tracing import Tracer
from workloads import SimNarrow, program_counts

tracer = Tracer(keep_spans=False)
tracer.install(rnskit)
ctx = rnskit.RnsContext(rnskit.ModuliSet((8, 9, 7)))
bindings = {"X": 5, "Y": 11, "Z": 3, "W": 200}
cases = [
    ("function1", rnskit.builtin_function1()),
    ("function2(5)", rnskit.builtin_function2(5)),
    ("cross", rnskit.parse_program(SimNarrow.CROSS)),
]
report = []
for name, prog in cases:
    before = tracer.simulated()
    rnskit.run(ctx, prog, bindings)
    seen = tracer.simulated()
    seen.subtract(before)
    report.append((name, dict(+seen), dict(+program_counts(prog))))
print(json.dumps(report))
"""


def test_every_wrapped_function_exists():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCHMARKS))
    for module_name, attr in tracing.WRAPPED:
        module = importlib.import_module(f"rnskit.{module_name}")
        assert callable(getattr(module, attr, None)), f"rnskit.{module_name}.{attr}"


def test_traced_counts_match_program_fields():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCHMARKS)])
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PROGRAMS],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [name for name, _, _ in report] == ["function1", "function2(5)", "cross"]
    for name, seen, expected in report:
        assert expected["datapath.sim_cycles"] > 0, name
        assert seen == expected, name
