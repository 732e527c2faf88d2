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

# a set wider than one remainder-tree leaf, so to_rns takes the multi-leaf path
wide = rnskit.RnsContext(rnskit.find_moduli(rnskit.GenerationRequest(2048, 24))[0])
assert wide._tree[2], "the wide context must have more than one leaf"
contexts = [
    ("narrow", rnskit.RnsContext(rnskit.ModuliSet((8, 9, 7))), {"X": 5, "Y": 11, "Z": 3, "W": 200}),
    ("wide", wide, {"X": 3**1000, "Y": 11, "Z": 7**700, "W": 200}),
]
tracer = Tracer(keep_spans=False)
tracer.install(rnskit)
cases = [
    ("function1", rnskit.builtin_function1()),
    ("function2(0)", rnskit.builtin_function2(0)),
    ("function2(1)", rnskit.builtin_function2(1)),
    # the start step's emitting twin: inject, square and emit in one cycle
    ("function2(2)", rnskit.builtin_function2(2)),
    # the start step, then times X with the emit
    ("function2(3)", rnskit.builtin_function2(3)),
    ("function2(5)", rnskit.builtin_function2(5)),
    # the benchmark's largest exponent, on the program built without a step scan
    ("function2(32)", rnskit.builtin_function2(32)),
    # all ones: the start and times X, then square and times X pairs
    ("function2(31)", rnskit.builtin_function2(31)),
    # the CLI's largest exponent: squares only
    ("function2(4096)", rnskit.builtin_function2(4096)),
    ("cross", rnskit.parse_program(SimNarrow.CROSS)),
]
report = []
for ctx_name, ctx, bindings in contexts:
    for name, prog in cases:
        before = tracer.simulated()
        rnskit.run(ctx, prog, bindings)
        seen = tracer.simulated()
        seen.subtract(before)
        report.append((f"{ctx_name} {name}", dict(+seen), dict(+program_counts(prog))))
print(json.dumps(report))
"""

# Runs in a child process: one compare call before Tracer.install, so the
# parser that main caches predates the wrappers, then each argv once, traced.
TRACED_COMPARE = """
import contextlib
import io
import json
import sys

import rnskit
import rnskit.cli
from tracing import Tracer

argvs = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [rnskit.cli.main(argvs[0])]
    tracer = Tracer(keep_spans=False)
    tracer.install(rnskit)
    codes += [rnskit.cli.main(argv) for argv in argvs]
print(json.dumps({"codes": codes, "calls": tracer.calls}))
"""

# Runs in a child process: each set once, traced, then one set that is not
# coprime, whose build must raise and still count as a context build.
TRACED_CONTEXTS = """
import json
import sys

import rnskit
import rnskit.cli
from tracing import Tracer

tracer = Tracer(keep_spans=False)
tracer.install(rnskit)
for moduli in json.loads(sys.argv[1]):
    rnskit.RnsContext(rnskit.ModuliSet(moduli))
try:
    rnskit.RnsContext(rnskit.ModuliSet((8, 9, 6)))
except rnskit.RnsError:
    pass
else:
    raise SystemExit("the set (8, 9, 6) built a context")
print(json.dumps(tracer.calls))
"""

CONTEXT_SETS = [[8, 9, 7], [42, 43, 41, 47, 37, 53], [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]]

COMPARE_ARGVS = [
    ["compare", "--bits", "16,40,333", "--schemes", "proposed3,sm2,proposed6"],
    ["compare", "--bits", "64", "--schemes", "proposed5,sm1,proposed4", "--format", "markdown"],
]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCHMARKS)])
    return env


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
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PROGRAMS],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    programs = [
        "function1", "function2(0)", "function2(1)", "function2(2)", "function2(3)",
        "function2(5)", "function2(32)", "function2(31)", "function2(4096)", "cross",
    ]
    assert [name for name, _, _ in report] == [
        f"{ctx} {prog}" for ctx in ("narrow", "wide") for prog in programs
    ]
    for name, seen, expected in report:
        assert expected["datapath.sim_cycles"] > 0, name
        assert seen == expected, name


def test_traced_compare_counts_with_the_parser_built_before_install():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_COMPARE, json.dumps(COMPARE_ARGVS)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0, 0]
    generated = roots = 0
    for argv in COMPARE_ARGVS:
        widths = len(argv[argv.index("--bits") + 1].split(","))
        cardinalities = [
            int(label[len("proposed"):])
            for label in argv[argv.index("--schemes") + 1].split(",")
            if label.startswith("proposed")
        ]
        generated += widths * len(cardinalities)
        # one root for the center, then one per slot beyond the triple
        roots += widths * sum(t - 2 for t in cardinalities)
    calls = report["calls"]
    assert calls["cli.main"] == len(COMPARE_ARGVS)
    assert calls["tables.comparison_rows"] == len(COMPARE_ARGVS)
    assert calls.get("tables.rows_to_csv", 0) + calls.get("tables.rows_to_markdown", 0) == len(COMPARE_ARGVS)
    assert calls["moduli.find_moduli"] == generated
    assert calls["numbers.ceil_nth_root"] == roots
    assert "numbers.coprime_to_all" not in calls


def test_traced_context_builds_count_every_build_and_failure():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CONTEXTS, json.dumps(CONTEXT_SETS)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert calls["rns.context_build"] == len(CONTEXT_SETS) + 1
