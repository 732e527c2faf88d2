"""The benchmark's three workloads: inputs, timed calls and exact oracles.

Each workload draws its requests from a seeded ``random.Random``, so one
seed always gives one request stream, and rnskit only ever sees the
generated values. ``execute`` times the calls into rnskit and nothing
else, in thread CPU time: rnskit does no I/O, so wall time differs from
it only by the time other processes on the machine held the CPU.
``check`` compares the result with plain exact-integer arithmetic
outside that interval. Request kinds are drawn in shuffled blocks that
hold the stated mix exactly, so runs on different seeds differ in their
operands but not in their mix.
"""

from __future__ import annotations

import contextlib
import io
from collections import Counter
from itertools import product
from math import gcd, prod
from time import thread_time_ns

from reference import interpreter_reference, wide_reference


def covers(moduli, bits: int) -> bool:
    """Every modulus >= 2, pairwise coprime, and the product reaches 2**bits - 1."""
    if any(m < 2 for m in moduli):
        return False
    if any(gcd(a, b) != 1 for i, a in enumerate(moduli) for b in moduli[i + 1:]):
        return False
    return prod(moduli) >= (1 << bits) - 1


def program_counts(prog) -> Counter:
    """Simulated statistics read off a program's Step fields.

    One cycle per step, one forward conversion per injection, one unit
    activation per selected unit and one reverse conversion per emit.
    """
    counts = Counter()
    for s in prog.steps:
        counts["datapath.sim_cycles"] += 1
        counts["datapath.forward_conversions"] += (s.inject_a is not None) + (s.inject_b is not None)
        counts["datapath.add_activations"] += s.add_l.name != "NONE"
        counts["datapath.sub_activations"] += s.sub_l.name != "NONE"
        counts["datapath.mul_activations"] += s.mul_l.name != "NONE"
        counts["datapath.reverse_conversions"] += s.emit.name != "NONE"
    return counts


class SimNarrow:
    """Library run() calls on small generated sets (every modulus <= 11 bits)."""

    name = "sim-narrow"
    reference = staticmethod(interpreter_reference)
    warmup = 400
    trace_requests = 2400
    SETS = ((32, 3), (32, 6), (64, 16))
    # Shuffled per block: half reuse function1, a quarter build function2
    # per request, a quarter run the parsed cross-read program.
    KINDS = ("function1", "function1", "function2", "cross")
    # All three units fire in steps 0-3 and read each other's latches.
    CROSS = """\
PROG cross5
STEP a=$X b=$Y add=IN1,IN2 sub=IN1,IN2 mul=IN1,IN2
STEP a=$Z add=ADD,SUB sub=MUL,IN1 mul=ADD,SUB
STEP b=$W add=MUL,IN2 sub=ADD,SUB mul=SUB,IN1 emit=ADD
STEP add=ADD,MUL sub=SUB,ADD mul=MUL,MUL emit=SUB
STEP emit=MUL
END
"""

    def setup(self, rk):
        contexts = [
            rk.RnsContext(rk.find_moduli(rk.GenerationRequest(bits, t))[0])
            for bits, t in self.SETS
        ]
        programs = {"function1": rk.builtin_function1(), "cross": rk.parse_program(self.CROSS)}
        return contexts, programs

    def requests(self, rng, state):
        contexts, _ = state
        ranges = [prod(ctx.moduli_set.moduli) for ctx in contexts]
        block = list(product(range(len(contexts)), self.KINDS))
        while True:
            rng.shuffle(block)
            for i, kind in block:
                m = ranges[i]
                bindings = {name: rng.randrange(m) for name in "XYZW"}
                yield kind, i, bindings, rng.randint(0, 32), m

    def execute(self, rk, state, req):
        contexts, programs = state
        kind, i, bindings, e, _ = req
        ctx = contexts[i]
        start = thread_time_ns()
        prog = rk.builtin_function2(e) if kind == "function2" else programs[kind]
        outputs, _ = rk.run(ctx, prog, bindings)
        return thread_time_ns() - start, (prog, outputs)

    def check(self, rk, req, result):
        kind, _, b, e, m = req
        _, outputs = result
        x, y, z, w = b["X"], b["Y"], b["Z"], b["W"]
        if kind == "function1":
            want = [(x + y) * z % m]
        elif kind == "function2":
            want = [pow(x, e, m)]
        else:
            # cross5 latches step by step: (ADD, SUB, MUL) after each step
            add, sub, mul = x + y, x - y, x * y
            add, sub, mul = add + sub, mul - z, add * sub
            add, sub, mul = mul + w, add - sub, sub * z
            first = add
            add, sub, mul = add + mul, sub - add, mul * mul
            want = [first % m, sub % m, mul % m]
        return outputs == want

    def structure(self, result):
        return program_counts(result[0])


class RnsWide:
    """Conversions and channel ops on find_moduli(8192, 64); no datapath."""

    name = "rns-wide"
    reference = staticmethod(wide_reference)
    warmup = 30
    trace_requests = 200
    BITS, COUNT = 8192, 64

    def setup(self, rk):
        moduli_set, _ = rk.find_moduli(rk.GenerationRequest(self.BITS, self.COUNT))
        return rk.RnsContext(moduli_set)

    def requests(self, rng, ctx):
        moduli = ctx.moduli_set.moduli
        m = prod(moduli)
        covered = covers(moduli, self.BITS)
        while True:
            yield rng.randrange(m), rng.randrange(m), rng.randint(0, 64), m, covered

    def execute(self, rk, ctx, req):
        x, y, e, _, _ = req
        start = thread_time_ns()
        a = rk.to_rns(ctx, x)
        b = rk.to_rns(ctx, y)
        values = (rk.rns_add(ctx, a, b), rk.rns_sub(ctx, a, b), rk.rns_mul(ctx, a, b), rk.rns_pow(ctx, a, e))
        outputs = [rk.from_rns(ctx, v) for v in values]
        return thread_time_ns() - start, outputs

    def check(self, rk, req, outputs):
        x, y, e, m, covered = req
        return covered and outputs == [(x + y) % m, (x - y) % m, x * y % m, pow(x, e, m)]

    def structure(self, result):
        return None


class GenSweep:
    """find_moduli + RnsContext across widths, plus in-process `compare` CLI calls."""

    name = "gen-sweep"
    reference = staticmethod(interpreter_reference)
    warmup = 50
    trace_requests = 400
    SCHEMES = ("proposed3", "proposed4", "proposed5", "proposed6", "sm1", "sm2", "sm3")
    KINDS = ("generate",) * 9 + ("compare",)

    def setup(self, rk):
        return None

    def requests(self, rng, state):
        block = list(self.KINDS)
        while True:
            rng.shuffle(block)
            for kind in block:
                if kind == "generate":
                    yield kind, rng.randint(64, 2048), rng.randint(3, 24)
                else:
                    yield kind, [rng.randint(16, 64) for _ in range(4)], rng.sample(self.SCHEMES, 3)

    def execute(self, rk, state, req):
        kind, bits, t = req
        if kind == "generate":
            start = thread_time_ns()
            moduli_set, _ = rk.find_moduli(rk.GenerationRequest(bits, t))
            rk.RnsContext(moduli_set)
            return thread_time_ns() - start, moduli_set
        argv = ["compare", "--bits", ",".join(map(str, bits)), "--schemes", ",".join(t)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = thread_time_ns()
            code = rk.cli.main(argv)
            elapsed = thread_time_ns() - start
        return elapsed, (code, out.getvalue())

    def check(self, rk, req, result):
        kind, bits, t = req
        if kind == "generate":
            moduli = result.moduli
            return len(moduli) == t and covers(moduli, bits) and rk.validate(result, bits).ok
        code, text = result
        if code != 0:
            return False
        rows = rk.rows_from_csv(text)
        cells = list(product(bits, t))
        return len(rows) == len(cells) and all(
            (row.bits, row.scheme.label) == (width, label)
            and len(row.moduli) == (int(label[len("proposed"):]) if label.startswith("proposed") else 3)
            and covers(row.moduli, width)
            and row.bit_cost == sum(m.bit_length() for m in row.moduli)
            for row, (width, label) in zip(rows, cells)
        )

    def structure(self, result):
        return None


WORKLOADS = {w.name: w for w in (SimNarrow(), RnsWide(), GenSweep())}
