import random
import re
from dataclasses import dataclass, field
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rnskit
from rnskit import cli, datapath
from rnskit.datapath import (
    Microprogram,
    ProgramParseError,
    RunFault,
    Source,
    Step,
    UnboundPlaceholderError,
    builtin_function1,
    builtin_function2,
    parse_program,
    render_program,
    run,
)
from rnskit.moduli import ModuliSet
from rnskit.rns import RnsContext, from_rns, rns_add, rns_mul, rns_sub, to_rns

CTX = RnsContext(ModuliSet((8, 9, 7)))


# --- step semantics, one short program each ---------------------------------------


def _run_steps(*steps, bindings=None):
    return run(CTX, Microprogram("p", steps), bindings)


def test_injections_only():
    outputs, trace = _run_steps(Step(inject_a=7, inject_b=5))
    assert trace == [{Source.IN1: to_rns(CTX, 7), Source.IN2: to_rns(CTX, 5)}]
    assert outputs == []


def test_add_step_after_injection():
    _, trace = _run_steps(Step(inject_a=7, inject_b=5), Step(add_l=Source.IN1, add_r=Source.IN2))
    assert trace[1][Source.ADD] == to_rns(CTX, 12)


def test_emit_step():
    outputs, _ = _run_steps(
        Step(inject_a=7, inject_b=5),
        Step(add_l=Source.IN1, add_r=Source.IN2),
        Step(emit=Source.ADD),
    )
    assert outputs == [12]


def test_same_step_injection_is_visible_to_units():
    _, trace = _run_steps(Step(inject_a=7, inject_b=5, add_l=Source.IN1, add_r=Source.IN2))
    assert trace[0][Source.ADD] == to_rns(CTX, 12)


def test_undefined_latch_read_faults_with_location():
    with pytest.raises(RunFault) as exc:
        _run_steps(*[Step()] * 4, Step(add_l=Source.IN1, add_r=Source.IN2))
    assert exc.value.step_index == 4
    assert exc.value.source == Source.IN1
    assert str(exc.value) == "step 4: read of undefined latch IN1"


def test_emit_of_undefined_latch_faults():
    with pytest.raises(RunFault) as exc:
        _run_steps(Step(emit=Source.MUL))
    assert (exc.value.step_index, exc.value.source) == (0, Source.MUL)


def test_half_selected_unit_rejected():
    with pytest.raises(ValueError):
        Step(add_l=Source.IN1)


@pytest.mark.parametrize("kwargs,label", [({"inject_a": True}, "a"), ({"inject_b": False}, "b")])
def test_bool_injection_literal_rejected(kwargs, label):
    value = next(iter(kwargs.values()))
    with pytest.raises(TypeError, match=f"^{label} injection {value} is not an int$"):
        Step(**kwargs, emit=Source.IN1)


def test_bool_bound_value_rejected():
    # a bound value is checked as a Step injection is: a bool is not an int
    with pytest.raises(TypeError, match="^a injection True is not an int$"):
        run(CTX, builtin_function1(), {"X": True, "Y": 1, "Z": 3})


def test_run_is_the_only_public_entry_point(monkeypatch):
    assert "step" not in rnskit.__all__
    assert "DatapathState" not in rnskit.__all__
    assert not hasattr(datapath, "DatapathState")
    # run calls the module's step once per cycle, in step order
    seen = []
    inner = datapath.step

    def counted(ctx, latches, outputs, bindings, s):
        seen.append(s)
        inner(ctx, latches, outputs, bindings, s)

    monkeypatch.setattr(datapath, "step", counted)
    prog = builtin_function2(5)
    outputs, _ = run(CTX, prog, {"X": 2})
    assert outputs == [32]
    # 5 = 0b101: inject X * X, square, times X with the emit
    assert seen == list(prog.steps) and len(seen) == 3


def test_step_read_of_unwritten_latch_raises_key_error_and_latches_no_result():
    # the kernel's contract with run: the missing Source as a KeyError,
    # raised after the injections and before any unit result latches
    latches, outputs = {}, []
    s = Step(inject_a=3, mul_l=Source.IN1, mul_r=Source.IN1, add_l=Source.IN1, add_r=Source.IN2,
             emit=Source.IN1)
    with pytest.raises(KeyError) as exc:
        datapath.step(CTX, latches, outputs, {}, s)
    assert exc.value.args == (Source.IN2,)
    assert latches == {Source.IN1: to_rns(CTX, 3)}
    assert outputs == []


# --- program runs ------------------------------------------------------------------


def test_function1_basic():
    outputs, trace = run(CTX, builtin_function1(), {"X": 7, "Y": 5, "Z": 3})
    assert outputs == [36]
    assert len(trace) == 2


def test_function1_zero_annihilates():
    outputs, _ = run(CTX, builtin_function1(), {"X": 0, "Y": 0, "Z": 5})
    assert outputs == [0]


def test_function1_wraps_modulo_range():
    outputs, _ = run(CTX, builtin_function1(), {"X": 100, "Y": 200, "Z": 3})
    assert outputs == [(300 * 3) % 504]


def test_function2_fourth_power():
    outputs, _ = run(CTX, builtin_function2(4), {"X": 3})
    assert outputs == [81]


def test_function2_zero_exponent():
    outputs, _ = run(CTX, builtin_function2(0), {"X": 200})
    assert outputs == [1]


def test_function2_first_power():
    outputs, _ = run(CTX, builtin_function2(1), {"X": 5})
    assert outputs == [5]


def _fresh_function1():
    return Microprogram(
        name="function1",
        steps=(
            Step(inject_a="X", inject_b="Y", add_l=Source.IN1, add_r=Source.IN2),
            Step(inject_b="Z", mul_l=Source.ADD, mul_r=Source.IN2, emit=Source.MUL),
        ),
    )


def _multiplies(e):
    """The (left, right) selects of X**e's multiplies, e >= 1, by recursion on e // 2.

    X**e is X**(e // 2) squared, then times X when e is odd; the first
    square reads the injected X twice from IN1, the others the MUL latch.
    """
    if e == 1:
        return []
    head = _multiplies(e // 2)
    pairs = head + [(Source.MUL, Source.MUL) if head else (Source.IN1, Source.IN1)]
    return pairs + [(Source.MUL, Source.IN1)] * (e % 2)


def _fresh_function2(e):
    if e == 0:
        return Microprogram(name="function2", steps=(Step(inject_a=1, emit=Source.IN1),))
    if e == 1:
        return Microprogram(name="function2", steps=(Step(inject_a="X", emit=Source.IN1),))
    # X is injected in the first multiply's cycle, and the last multiply emits
    pairs = _multiplies(e)
    steps = [
        Step(
            inject_a="X" if i == 0 else None, mul_l=l, mul_r=r,
            emit=Source.MUL if i == len(pairs) - 1 else Source.NONE,
        )
        for i, (l, r) in enumerate(pairs)
    ]
    return Microprogram(name="function2", steps=tuple(steps))


@pytest.mark.parametrize("e", [*range(41), cli.MAX_EXPONENT - 1, cli.MAX_EXPONENT])
def test_shared_step_function2_equals_fresh_build(e):
    prog = builtin_function2(e)
    assert prog == _fresh_function2(e)
    # floor(log2 e) squares, the first in the inject cycle, and popcount(e) - 1 times X
    assert len(prog.steps) == (1 if e < 2 else e.bit_length() - 2 + e.bit_count())
    assert parse_program(render_program(prog)) == prog
    assert builtin_function2(e) == prog
    assert prog._placeholders == _fresh_function2(e)._placeholders
    # every slot, the placeholder record included, as the constructor sets it
    assert prog.__getstate__() == Microprogram("function2", prog.steps).__getstate__()
    if e >= 1:
        assert prog._placeholders is builtin_function2(1)._placeholders


_POW_CONTEXTS = [
    RnsContext(rnskit.find_moduli(rnskit.GenerationRequest(bits, count))[0])
    for bits, count in ((16, 3), (32, 6), (64, 16), (300, 5))
]


@st.composite
def _pow_cases(draw):
    ctx = draw(st.sampled_from(_POW_CONTEXTS))
    e = draw(st.integers(0, cli.MAX_EXPONENT))
    return ctx, e, draw(st.integers(0, ctx.moduli_set.dynamic_range - 1))


@given(_pow_cases())
@example((_POW_CONTEXTS[1], cli.MAX_EXPONENT, 7))
@example((_POW_CONTEXTS[1], cli.MAX_EXPONENT - 1, _POW_CONTEXTS[1].moduli_set.dynamic_range - 1))
@settings(max_examples=200)
def test_function2_is_x_to_the_e_in_multiply_only_cycles(case):
    ctx, e, x = case
    prog = builtin_function2(e)
    assert run(ctx, prog, {"X": x})[0] == [pow(x, e, ctx.moduli_set.dynamic_range)]
    # after the inject step, each cycle runs the multiplier and no other unit
    for s in prog.steps[1:]:
        assert s.mul_l is not Source.NONE
        assert (s.add_l, s.sub_l, s.inject_a, s.inject_b) == (Source.NONE, Source.NONE, None, None)
    # exactly one step emits, the last
    emits = [s.emit is not Source.NONE for s in prog.steps]
    assert emits == [False] * (len(prog.steps) - 1) + [True]


def _is_idle(s):
    return s.emit is Source.NONE and Source.NONE is s.add_l is s.sub_l is s.mul_l


@given(st.one_of(st.none(), st.integers(0, cli.MAX_EXPONENT)))
@example(None)
@example(0)
@example(1)
@example(2)
@example(cli.MAX_EXPONENT)
@settings(max_examples=200)
def test_builtin_steps_all_work_and_only_the_last_emits(e):
    # None stands for function1
    prog = builtin_function1() if e is None else builtin_function2(e)
    # an injection alone is an idle cycle: it could share the next step's
    assert not any(_is_idle(s) for s in prog.steps)
    emits = [s.emit is not Source.NONE for s in prog.steps]
    assert emits == [False] * (len(prog.steps) - 1) + [True]
    if e is not None and e >= 1:
        # X goes through the first converter once, and nothing else is injected
        assert [s.inject_a for s in prog.steps if s.inject_a is not None] == ["X"]
        assert all(s.inject_b is None for s in prog.steps)
        assert prog._placeholders is builtin_function2(1)._placeholders


def test_readme_scale_sum_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split("## Program text format\n\n```\n", 1)[1].split("```", 1)[0]
    prog = parse_program(text)
    assert prog.name == "scale-sum"
    assert not any(_is_idle(s) for s in prog.steps)
    assert run(CTX, prog, {"X": 7, "Y": 5, "Z": 3})[0] == [36]


def test_render_of_a_literal_past_int_str_limit_raises_value_error():
    # Step takes any unsigned literal; text of 4300 digits round-trips, but
    # one digit more is past int-to-str's limit (parse rejects it too, a row of
    # test_parse_program_or_its_diagnostics)
    at_limit = Microprogram("big", (Step(inject_a=10**4300 - 1, emit=Source.IN1),))
    assert parse_program(render_program(at_limit)) == at_limit
    with pytest.raises(ValueError):
        render_program(Microprogram("big", (Step(inject_a=10**4300, emit=Source.IN1),)))


def test_shared_function1_equals_fresh_build():
    assert builtin_function1() == _fresh_function1()
    assert builtin_function1() == builtin_function1()
    assert builtin_function1()._placeholders == (("a", "X"), ("b", "Y"), ("b", "Z"))


def test_placeholder_record_is_left_out_of_equality_hash_and_repr():
    s = Step(inject_a="X", inject_b=3, add_l=Source.IN1, add_r=Source.IN2)
    p = Microprogram("p", (s, Step(inject_b="Y")))
    assert p._placeholders == (("a", "X"), ("b", "Y"))
    # the program holds the only record; a step is its fields and nothing else
    assert Step.__slots__ == Step.FIELDS
    # a twin whose record is blanked must still compare, hash and print the same
    twin = Microprogram("p", (s, Step(inject_b="Y")))
    object.__setattr__(twin, "_placeholders", ())
    assert p == twin
    assert hash(p) == hash(twin)
    assert repr(p) == repr(twin)
    assert "_placeholders" not in repr(p)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"add_l": "IN1", "add_r": "IN2"}, "add_l must be a Source, got 'IN1'"),
        ({"emit": "MUL"}, "emit must be a Source, got 'MUL'"),
        ({"mul_l": None, "mul_r": None}, "mul_l must be a Source, got None"),
        ({"emit": 3}, "emit must be a Source, got 3"),
    ],
)
def test_select_that_is_not_a_source_rejected(kwargs, message):
    with pytest.raises(TypeError) as exc:
        Step(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "name,steps,message",
    [
        ("p", ("x",), "step 'x' is not a Step"),
        ("p", (Step(), None), "step None is not a Step"),
        (3, (), "program name 3 is not a str"),
    ],
    ids=["str-step", "none-step", "int-name"],
)
def test_program_of_wrong_types_rejected(name, steps, message):
    with pytest.raises(TypeError) as exc:
        Microprogram(name, steps)
    assert str(exc.value) == message


def test_rendered_text_is_pinned():
    assert render_program(builtin_function1()) == (
        "PROG function1\n"
        "STEP a=$X b=$Y add=IN1,IN2\n"
        "STEP b=$Z mul=ADD,IN2 emit=MUL\n"
        "END\n"
    )
    # 13 = 0b1101: inject X * X, times X, square, square, times X with the emit
    assert render_program(builtin_function2(13)) == (
        "PROG function2\n"
        "STEP a=$X mul=IN1,IN1\n"
        "STEP mul=MUL,IN1\n"
        "STEP mul=MUL,MUL\n"
        "STEP mul=MUL,MUL\n"
        "STEP mul=MUL,IN1 emit=MUL\n"
        "END\n"
    )
    every_field = Step(
        inject_a=0, inject_b="Y", add_l=Source.IN1, add_r=Source.IN2,
        sub_l=Source.ADD, sub_r=Source.SUB, mul_l=Source.MUL, mul_r=Source.IN1, emit=Source.SUB,
    )
    assert render_program(Microprogram("all", (every_field,))) == (
        "PROG all\nSTEP a=0 b=$Y add=IN1,IN2 sub=ADD,SUB mul=MUL,IN1 emit=SUB\nEND\n"
    )


def test_readme_function2_listing_is_the_rendered_schedule():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # the listing sits in a bullet, indented by two spaces
    lines = render_program(builtin_function2(13)).splitlines()
    assert "".join(f"  {line}\n" for line in lines) in readme
    assert "e + 1 references" not in readme


def test_function2_negative_exponent_rejected():
    with pytest.raises(ValueError, match="exponent must be >= 0, got -1"):
        builtin_function2(-1)


def test_unbound_placeholder_names_it():
    with pytest.raises(UnboundPlaceholderError) as exc:
        run(CTX, builtin_function1(), {"X": 7, "Y": 5})
    assert exc.value.name == "Z"
    assert "$Z" in str(exc.value)


@pytest.mark.parametrize(
    "bindings",
    [
        {"X": 7.5, "Y": 1, "Z": 1},
        {"X": -1, "Y": 1, "Z": 1},
        {"X": 1, "Y": 1, "Z": -1},  # Z is first injected in step 1
        {"X": "7", "Y": 1, "Z": 1},
        {"X": 1, "Y": 1, "Z": 2.5},
    ],
)
def test_bad_bound_value_rejected_before_any_step(monkeypatch, bindings):
    executed = []
    monkeypatch.setattr(datapath, "step", lambda *args, **kwargs: executed.append(args))
    # a negative int is out of range (ValueError); any other bad value is not an int
    error = ValueError if all(type(v) is int for v in bindings.values()) else TypeError
    with pytest.raises(error):
        run(CTX, builtin_function1(), bindings)
    assert executed == []


def test_unbound_placeholder_checked_before_any_step():
    prog = Microprogram(
        name="late",
        steps=(Step(emit=Source.MUL), Step(inject_a="Q")),
    )
    with pytest.raises(UnboundPlaceholderError) as exc:
        run(CTX, prog, {})
    assert exc.value.name == "Q"


def test_run_fault_reports_step_index():
    prog = Microprogram(
        name="bad",
        steps=(
            Step(inject_a=1),
            Step(add_l=Source.IN1, add_r=Source.IN2),
        ),
    )
    with pytest.raises(RunFault) as exc:
        run(CTX, prog, {})
    assert exc.value.step_index == 1
    assert exc.value.source == Source.IN2


def test_cross_read_sees_previous_step_values():
    # ADD and MUL read each other in step 2; both must see step-1 results.
    prog = Microprogram(
        name="crossread",
        steps=(
            Step(
                inject_a=3,
                inject_b=5,
                add_l=Source.IN1,
                add_r=Source.IN2,
                mul_l=Source.IN1,
                mul_r=Source.IN2,
            ),
            Step(
                add_l=Source.MUL,
                add_r=Source.IN1,
                mul_l=Source.ADD,
                mul_r=Source.IN1,
            ),
            Step(emit=Source.ADD),
            Step(emit=Source.MUL),
        ),
    )
    outputs, _ = run(CTX, prog, {})
    assert outputs == [(3 * 5 + 3) % 504, ((3 + 5) * 3) % 504]


def test_trace_and_output_lengths():
    prog = Microprogram(
        name="lengths",
        steps=(
            Step(inject_a=2, inject_b=3),
            Step(add_l=Source.IN1, add_r=Source.IN2, emit=Source.ADD),
            Step(sub_l=Source.IN1, sub_r=Source.IN2),
            Step(emit=Source.SUB),
        ),
    )
    outputs, trace = run(CTX, prog, {})
    assert len(trace) == 4
    assert len(outputs) == 2  # one per non-NONE emit


def test_unit_latch_persists_across_steps():
    prog = Microprogram(
        name="persist",
        steps=(
            Step(inject_a=4, inject_b=9, add_l=Source.IN1, add_r=Source.IN2),
            Step(inject_a=1, inject_b=1),  # ADD latch must survive this step
            Step(emit=Source.ADD),
        ),
    )
    outputs, _ = run(CTX, prog, {})
    assert outputs == [13]


@pytest.mark.parametrize("moduli", [(8, 9, 7), (16, 17, 15, 19), (42, 43, 41)])
def test_oracle_equivalence_randomized(moduli):
    ctx = RnsContext(ModuliSet(moduli))
    total = ctx.moduli_set.dynamic_range
    rng = random.Random(77)
    f1 = builtin_function1()
    for _ in range(200):
        x, y, z = (rng.randrange(total) for _ in range(3))
        assert run(ctx, f1, {"X": x, "Y": y, "Z": z})[0] == [((x + y) * z) % total]
        e = rng.randrange(0, 33)
        assert run(ctx, builtin_function2(e), {"X": x})[0] == [pow(x, e, total)]


# --- program text ------------------------------------------------------------------


def test_render_parse_roundtrip_builtin():
    prog = builtin_function1()
    assert parse_program(render_program(prog)) == prog


def _parsed(text):
    """The program parse builds, or the whole diagnostics list it raises."""
    try:
        return parse_program(text)
    except ProgramParseError as exc:
        return exc.diagnostics


_ONE_STEP = Microprogram("p", (Step(inject_a=1, emit=Source.IN1),))


@pytest.mark.parametrize(
    "text,expected",
    [
        pytest.param(
            "PROG p\nSTEP a=1 emit=IN1\nSTEP emit=MUL\nEND\n",
            Microprogram("p", (Step(inject_a=1, emit=Source.IN1), Step(emit=Source.MUL))),
            id="emit-field",
        ),
        pytest.param(
            "# header comment\nPROG p\n\n# mid comment\nSTEP a=7\nEND\n",
            Microprogram("p", (Step(inject_a=7),)),
            id="comments-and-blank-lines",
        ),
        pytest.param(
            "PROG p\nSTEP a=$X b=3\nEND\n",
            Microprogram("p", (Step(inject_a="X", inject_b=3),)),
            id="placeholder",
        ),
        pytest.param("PROG p\nSTEP\ta=1 emit=IN1\nEND\n", _ONE_STEP, id="tab-after-step-keyword"),
        # a line ends only at LF, CRLF or CR; any other line break is part of its line
        pytest.param(
            "PROG p\n# note\u2028more\nSTEP a=1 emit=IN1\nEND\n", _ONE_STEP, id="u2028-in-comment",
        ),
        pytest.param("PROG p\nSTEP a=1\x0cemit=IN1\nEND\n", _ONE_STEP, id="form-feed-in-step"),
        pytest.param(
            "PROG p\r\n# note\x0bmore\rSTEP a=1 emit=IN1\r\nEND\r", _ONE_STEP,
            id="vt-with-crlf-and-cr",
        ),
        pytest.param(
            "PROG p\n# note\x85more\nSTEP add=IN1,BAD\nEND\n",
            [(3, "unknown source token 'BAD'")],
            id="nel-before-diagnostic",
        ),
        # a bad step line: one diagnostic at its line; emit takes one source,
        # so a comma is part of its token
        pytest.param(
            "PROG p\nSTEP add=IN1,BAD\nEND\n", [(2, "unknown source token 'BAD'")],
            id="unknown-source-token",
        ),
        pytest.param(
            "PROG p\nSTEP emit=IN1,IN2\nEND\n", [(2, "unknown source token 'IN1,IN2'")],
            id="emit-of-two-sources",
        ),
        pytest.param("PROG p\nSTEP emit=\nEND\n", [(2, "unknown source token ''")], id="empty-emit"),
        pytest.param("PROG p\nSTEP a=1 a=2\nEND\n", [(2, "duplicate field 'a'")], id="duplicate-field"),
        pytest.param(
            "PROG p\nSTEP bogus=3\nEND\n", [(2, "malformed field 'bogus=3'")], id="malformed-field",
        ),
        pytest.param(
            "PROG p\nSTEP a=1 emit\nEND\n", [(2, "malformed field 'emit'")],
            id="field-without-equals",
        ),
        pytest.param(
            "PROG p\nSTEP mul=IN1\nEND\n", [(2, "field 'mul' needs exactly two sources")],
            id="unit-of-one-source",
        ),
        pytest.param(
            "PROG p\nSTEP add=IN1,IN2,SUB\nEND\n", [(2, "field 'add' needs exactly two sources")],
            id="unit-of-three-sources",
        ),
        pytest.param(
            "PROG p\nSTEP sub=\nEND\n", [(2, "field 'sub' needs exactly two sources")],
            id="unit-of-no-source",
        ),
        # a value is a plain unsigned decimal of at most 4300 digits
        pytest.param(
            "PROG p\nSTEP a=-3\nEND\n", [(2, "a injection must be >= 0, got -3")], id="negative-value",
        ),
        pytest.param(
            "PROG p\nSTEP a=+3\nEND\n", [(2, "bad unsigned decimal '+3'")], id="value-plus-sign",
        ),
        pytest.param(
            "PROG p\nSTEP a=\u00b2\nEND\n", [(2, "bad unsigned decimal '\u00b2'")],
            id="value-superscript",
        ),
        pytest.param(
            "PROG p\nSTEP a=\u0663\nEND\n", [(2, "bad unsigned decimal '\u0663'")],
            id="value-arabic-indic-digit",
        ),
        pytest.param(
            "PROG p\nSTEP a=1_0\nEND\n", [(2, "bad unsigned decimal '1_0'")], id="value-underscore",
        ),
        pytest.param(
            "PROG p\nSTEP a=1,2\nEND\n", [(2, "bad unsigned decimal '1,2'")], id="value-comma",
        ),
        pytest.param(
            f"PROG big\nSTEP a=1{'0' * 4300} emit=IN1\nEND\n",
            [(2, f"bad unsigned decimal '1{'0' * 4300}'")],
            id="value-past-int-str-limit",
        ),
        # the program's frame: header, STEP lines, END
        pytest.param("", [(1, "empty program: missing PROG header")], id="empty"),
        pytest.param(
            "END\n", [(1, "expected 'PROG <name>' header"), (1, "missing END terminator")],
            id="end-only",
        ),
        pytest.param("PROG p\n", [(1, "missing END terminator")], id="header-only"),
        pytest.param("STEP a=1\nEND\n", [(1, "expected 'PROG <name>' header")], id="no-header"),
        pytest.param("PROG p\nSTEP a=1\n", [(2, "missing END terminator")], id="no-end"),
        pytest.param("PROG p q\nEND\n", [(1, "expected 'PROG <name>' header")], id="name-with-space"),
        pytest.param(
            "PROG p\nEND\nEND\n", [(2, "expected STEP line, got 'END'")], id="second-end",
        ),
        pytest.param(
            "PROG p\nSTEP a=1\nSTEPS\ta=2\nEND\n", [(3, "expected STEP line, got 'STEPS'")],
            id="other-keyword",
        ),
    ],
)
def test_parse_program_or_its_diagnostics(text, expected):
    assert _parsed(text) == expected


@given(name=st.one_of(
    st.text(max_size=6),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
))
@example("é")
@example("xª")
@example("ｘ")
@example("x٣")
@example("a\n")
@example("")
@example("_")
@settings(max_examples=300)
def test_placeholder_name_accepted_exactly_when_it_is_an_ascii_identifier(name):
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        assert Step(inject_a=name).inject_a == name
    else:
        with pytest.raises(ValueError, match="^a placeholder .* is not an identifier$"):
            Step(inject_a=name)


@pytest.mark.parametrize(
    "field,kwargs,message",
    [
        ("a=-3", {"inject_a": -3}, "a injection must be >= 0, got -3"),
        ("a=$1x", {"inject_a": "1x"}, "a placeholder '1x' is not an identifier"),
        ("b=$", {"inject_b": ""}, "b placeholder '' is not an identifier"),
        ("b=$X-1", {"inject_b": "X-1"}, "b placeholder 'X-1' is not an identifier"),
        ("b=$X,$Y", {"inject_b": "X,$Y"}, "b placeholder 'X,$Y' is not an identifier"),
    ],
)
def test_parse_reports_the_step_injection_check(field, kwargs, message):
    with pytest.raises(ValueError) as direct:
        Step(**kwargs)
    assert str(direct.value) == message
    assert _parsed(f"PROG p\nSTEP {field} emit=IN1\nEND\n") == [(2, message)]


_sources = st.sampled_from([Source.IN1, Source.IN2, Source.ADD, Source.SUB, Source.MUL])
_injections = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=10**9),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
)
_select_pairs = st.one_of(
    st.just((Source.NONE, Source.NONE)),
    st.tuples(_sources, _sources),
)


@st.composite
def _steps(draw, injections=_injections):
    add = draw(_select_pairs)
    sub = draw(_select_pairs)
    mul = draw(_select_pairs)
    return Step(
        inject_a=draw(injections),
        inject_b=draw(injections),
        add_l=add[0], add_r=add[1],
        sub_l=sub[0], sub_r=sub[1],
        mul_l=mul[0], mul_r=mul[1],
        emit=draw(st.one_of(st.just(Source.NONE), _sources)),
    )


def _scanned_placeholders(prog):
    """The (label, name) pairs found by walking every step, a before b."""
    return tuple(
        (label, name)
        for s in prog.steps
        for label, name in (("a", s.inject_a), ("b", s.inject_b))
        if isinstance(name, str)
    )


@given(
    name=st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,12}", fullmatch=True),
    steps=st.lists(_steps(), max_size=6),
    repeats=st.lists(st.integers(0, 5), max_size=4),
    data=st.data(),
)
@settings(max_examples=200)
def test_program_text_roundtrip_property(name, steps, repeats, data):
    # repeated references to one Step object, as the built-ins share theirs
    prog = Microprogram(name, tuple(steps + [steps[i] for i in repeats if i < len(steps)]))
    assert prog._placeholders == _scanned_placeholders(prog)
    text = render_program(prog)
    parsed = parse_program(text)
    assert parsed == prog
    assert parsed._placeholders == prog._placeholders
    # every step line parses to its step with its fields in any order
    header, *lines, end = text.splitlines()
    shuffled = ["STEP " + " ".join(data.draw(st.permutations(line.split()[1:]))) for line in lines]
    assert parse_program("\n".join([header, *shuffled, end]) + "\n") == prog


# The step-line parser as it stood when it re-checked identifiers and
# signs itself and read the fields in three passes, kept verbatim as the
# reference for which lines are accepted and what they build.
_REFERENCE_STEP_KEYS = ("a", "b", "add", "sub", "mul", "emit")
_REFERENCE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _reference_parse_value(text):
    if text.startswith("$"):
        name = text[1:]
        if not _REFERENCE_IDENT.match(name):
            raise ValueError(f"bad placeholder {text!r}")
        return name
    value = rnskit.numbers.parse_decimal(text)
    if value is None or value < 0:
        raise ValueError(f"bad unsigned decimal {text!r}")
    return value


def _reference_parse_step_line(tokens):
    fields = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or key not in _REFERENCE_STEP_KEYS:
            raise ValueError(f"malformed field {token!r}")
        if key in fields:
            raise ValueError(f"duplicate field {key!r}")
        fields[key] = value
    kwargs = {}
    for key in ("a", "b"):
        if key in fields:
            kwargs[f"inject_{key}"] = _reference_parse_value(fields[key])
    for key in ("add", "sub", "mul"):
        if key in fields:
            parts = fields[key].split(",")
            if len(parts) != 2:
                raise ValueError(f"field {key!r} needs exactly two sources")
            kwargs[f"{key}_l"] = datapath._parse_source(parts[0])
            kwargs[f"{key}_r"] = datapath._parse_source(parts[1])
    if "emit" in fields:
        kwargs["emit"] = datapath._parse_source(fields["emit"])
    return Step(**kwargs)


# valid text for each field key; one field in five takes its text from a
# mixed pool, mostly malformed, and one in ten is not a key=value pair
_FIELD_TEXT = {
    "a": ["0", "7", "-0", "$X", "$_y2"],
    "b": ["0", "7", "-0", "$X", "$_y2"],
    "add": ["IN1,IN2", "MUL,ADD", "SUB,SUB"],
    "sub": ["IN1,IN2", "MUL,ADD", "SUB,SUB"],
    "mul": ["IN1,IN2", "MUL,ADD", "SUB,SUB"],
    "emit": ["IN1", "IN2", "ADD", "SUB", "MUL"],
}
_MALFORMED_TEXT = [
    "-3", "+3", "1_0", "\u0663", "", "$", "$1x", "$X-1", "IN1", "IN1,", ",IN2",
    "IN1,IN2,SUB", "IN1,BAD", "NONE", "NONE,IN1", "in1", "IN1,IN2", "7",
]


@st.composite
def _fields(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["bogus=1", "=3", "a", "emit", "a=1=2", "A=1"]))
    key = draw(st.sampled_from(sorted(_FIELD_TEXT)))
    pool = _FIELD_TEXT[key] if draw(st.integers(0, 4)) else _MALFORMED_TEXT
    return f"{key}={draw(st.sampled_from(pool))}"


@given(
    st.lists(_fields(), max_size=4, unique_by=lambda field: field.partition("=")[0])
    | st.lists(_fields(), max_size=4)
)
@settings(max_examples=500)
def test_step_line_parity_with_the_reference_parser(tokens):
    text = "PROG p\nSTEP " + " ".join(tokens) + "\nEND\n"
    try:
        expected = _reference_parse_step_line(tokens)
    except ValueError:
        with pytest.raises(ProgramParseError) as exc:
            parse_program(text)
        assert [line for line, _ in exc.value.diagnostics] == [2]
    else:
        assert parse_program(text).steps == (expected,)


# every code point that str.isspace() calls whitespace
_WHITESPACE = [ch for ch in map(chr, range(0x110000)) if ch.isspace()]


@given(st.text(st.one_of(st.characters(), st.sampled_from(_WHITESPACE)), max_size=6))
@example("")
@example("a\u3000b")
@example("\x1c")
@example("fn\u2028")
@example("\x85x")
@example("function2")
@settings(max_examples=300)
def test_program_name_check_agrees_with_the_whitespace_scan(name):
    if not name or any(ch.isspace() for ch in name):
        with pytest.raises(ValueError, match="^program name must be a non-empty token"):
            Microprogram(name, ())
    else:
        assert Microprogram(name, ()).name == name


# --- parity with the reference interpreter -------------------------------------
#
# The interpreter as it stood before step lost its per-call closure, input
# tuple and update dict, kept verbatim as the reference semantics; _RefState
# stands in for the state class the library had then.


@dataclass
class _RefState:
    latches: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    bindings: dict = field(default_factory=dict)


def _reference_step(ctx, state, s, index=None):
    latches = state.latches
    for value, latch in ((s.inject_a, Source.IN1), (s.inject_b, Source.IN2)):
        if value is None:
            continue
        if isinstance(value, str):
            try:
                value = state.bindings[value]
            except KeyError:
                raise UnboundPlaceholderError(value) from None
        latches[latch] = to_rns(ctx, value)

    def fetch(src):
        try:
            return latches[src]
        except KeyError:
            raise RunFault(index, src) from None

    updates = {}
    if s.add_l is not Source.NONE:
        updates[Source.ADD] = rns_add(ctx, fetch(s.add_l), fetch(s.add_r))
    if s.sub_l is not Source.NONE:
        updates[Source.SUB] = rns_sub(ctx, fetch(s.sub_l), fetch(s.sub_r))
    if s.mul_l is not Source.NONE:
        updates[Source.MUL] = rns_mul(ctx, fetch(s.mul_l), fetch(s.mul_r))
    latches.update(updates)

    if s.emit is not Source.NONE:
        state.outputs.append(from_rns(ctx, fetch(s.emit)))
    return state


def _reference_run(ctx, prog, bindings=None):
    bindings = bindings or {}
    for s in prog.steps:
        for label, name in (("a", s.inject_a), ("b", s.inject_b)):
            if isinstance(name, str):
                if name not in bindings:
                    raise UnboundPlaceholderError(name)
                rnskit.numbers.check_int(f"{label} injection", bindings[name], 0)
    state = _RefState(bindings=bindings)
    trace = []
    for i, s in enumerate(prog.steps):
        _reference_step(ctx, state, s, index=i)
        trace.append(dict(state.latches))
    return list(state.outputs), trace


def _outcome(call):
    """The result, or the fault with every field a caller can read."""
    try:
        return "ok", call()
    except (RunFault, UnboundPlaceholderError, TypeError, ValueError) as exc:
        fields = (
            getattr(exc, "step_index", None),
            getattr(exc, "source", None),
            getattr(exc, "name", None),
        )
        return "fault", type(exc), fields, str(exc)


def _ran(run_fn, ctx, prog, bindings):
    """The outcome of a run, with the latch order of every snapshot."""

    def call():
        outputs, trace = run_fn(ctx, prog, dict(bindings))
        return outputs, [list(snapshot.items()) for snapshot in trace]

    return _outcome(call)


_PARITY_CONTEXTS = (CTX, RnsContext(ModuliSet((42, 43, 41, 47, 37, 53))))
_NAMES = ("X", "Y", "Z")
# Writes all five latches, so the steps after it read no undefined latch.
_PRIMER = Step(
    inject_a=3, inject_b=5,
    add_l=Source.IN1, add_r=Source.IN2,
    sub_l=Source.IN1, sub_r=Source.IN2,
    mul_l=Source.IN1, mul_r=Source.IN2,
)


@st.composite
def _parity_cases(draw):
    injections = st.one_of(st.none(), st.integers(0, 10**12), st.sampled_from(_NAMES))
    steps = draw(st.lists(_steps(injections), max_size=6))
    if draw(st.booleans()):
        steps.insert(0, _PRIMER)
    # a placeholder may be left out, and a bound value may be negative
    left_out = draw(st.sets(st.sampled_from(_NAMES), max_size=2))
    bindings = {name: draw(st.integers(-1, 10**12)) for name in _NAMES if name not in left_out}
    ctx = draw(st.sampled_from(_PARITY_CONTEXTS))
    return ctx, Microprogram(name="parity", steps=tuple(steps)), bindings


@given(_parity_cases())
@settings(max_examples=200)
def test_run_matches_reference_interpreter(case):
    ctx, prog, bindings = case
    assert _ran(run, ctx, prog, bindings) == _ran(_reference_run, ctx, prog, bindings)


class _Count(int):
    """An int subclass, as a library caller may bind one."""


@pytest.mark.parametrize("value", [True, _Count(7), -1, 2.5, "7"], ids=repr)
@pytest.mark.parametrize("name", ["X", "Z"])  # X is injected as a in step 0, Z as b in step 1
def test_bound_value_outcome_is_the_full_check(name, value):
    # run accepts a plain unsigned int inline; every other value must still
    # get check_int's verdict and message, as the reference run does
    bindings = {"X": 7, "Y": 1, "Z": 3, name: value}
    outcome = _ran(run, CTX, builtin_function1(), bindings)
    assert outcome == _ran(_reference_run, CTX, builtin_function1(), bindings)
    label = "a" if name == "X" else "b"
    if value == -1:
        message = f"{label} injection must be >= 0, got -1"
        assert outcome == ("fault", ValueError, (None, None, None), message)
    elif type(value) in (bool, float, str):
        message = f"{label} injection {value!r} is not an int"
        assert outcome == ("fault", TypeError, (None, None, None), message)
    else:
        assert outcome[1][0] == [(bindings["X"] + 1) * bindings["Z"] % 504]


@pytest.mark.parametrize("unit", ["add", "sub", "mul"])
@pytest.mark.parametrize("side", ["l", "r"])
def test_fault_in_each_unit_position_latches_nothing(unit, side):
    # IN1 and MUL are written; the faulting read is SUB in one position
    selects = {f"{u}_{x}": Source.IN1 for u in ("add", "sub", "mul") for x in "lr"}
    selects[f"{unit}_{side}"] = Source.SUB
    with pytest.raises(RunFault) as exc:
        _run_steps(
            Step(inject_a=3, mul_l=Source.IN1, mul_r=Source.IN1),
            Step(),
            Step(inject_a="X", inject_b=6, **selects),
            bindings={"X": 4},
        )
    assert (exc.value.step_index, exc.value.source) == (2, Source.SUB)


# --- the paper's DSP kernel: an N-tap FIR sum as a program ------------------------

FIR_SETS = {
    "narrow": RnsContext(ModuliSet((42, 43, 41, 47, 37, 53))),
    "multi-leaf": RnsContext(rnskit.find_moduli(rnskit.GenerationRequest(2048, 24))[0]),
}


def _fir_text(taps, zero="SUB"):
    """N-tap multiply-accumulate: step k multiplies x_k by h_k while the
    adder folds in step k - 1's product, so N taps take N + 1 steps.

    Step 0 puts a zero in SUB for the first add; `zero="ADD"` drops it and
    has the first add read ADD, which no step has written yet.
    """
    lines = [f"PROG fir{taps}"]
    for k in range(taps):
        unit = "sub=IN1,IN1" if k == 0 else f"add={zero if k == 1 else 'ADD'},MUL"
        lines.append(f"STEP a=$X{k} b=$H{k} mul=IN1,IN2 {unit}")
    lines.append(f"STEP add={zero if taps == 1 else 'ADD'},MUL emit=ADD")
    return "\n".join([*lines, "END"]) + "\n"


@pytest.mark.parametrize("name", sorted(FIR_SETS))
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_fir_program_sums_the_tap_products(name, data):
    ctx = FIR_SETS[name]
    total = ctx.moduli_set.dynamic_range
    taps = data.draw(st.integers(1, 8), label="taps")
    values = st.integers(0, total - 1)
    xs = data.draw(st.lists(values, min_size=taps, max_size=taps), label="xs")
    hs = data.draw(st.lists(values, min_size=taps, max_size=taps), label="hs")
    bindings = {f"X{k}": x for k, x in enumerate(xs)} | {f"H{k}": h for k, h in enumerate(hs)}
    outputs, _ = run(ctx, parse_program(_fir_text(taps)), bindings)
    assert outputs == [sum(x * h for x, h in zip(xs, hs)) % total]


@pytest.mark.parametrize("taps", range(1, 9))
def test_fir_program_shape(taps):
    steps = parse_program(_fir_text(taps)).steps

    def count(unit):
        return sum(getattr(s, f"{unit}_l") is not Source.NONE for s in steps)

    assert len(steps) == taps + 1
    assert (count("mul"), count("add"), count("sub")) == (taps, taps, 1)
    injections = [v for s in steps for v in (s.inject_a, s.inject_b) if v is not None]
    assert len(injections) == 2 * taps
    assert [s.emit for s in steps] == [Source.NONE] * taps + [Source.ADD]


@pytest.mark.parametrize("taps", [1, 4])
def test_fir_program_without_the_sub_zero_faults_on_add(taps):
    with pytest.raises(RunFault) as exc:
        run(FIR_SETS["narrow"], parse_program(_fir_text(taps, zero="ADD")),
            {f"{p}{k}": 1 for p in "XH" for k in range(taps)})
    assert (exc.value.step_index, exc.value.source) == (1, Source.ADD)


def _run_fir4(tmp_path, capsys, moduli, xs, hs):
    path = tmp_path / "fir4.txt"
    path.write_text(_fir_text(4))
    code = cli.main([
        "run", "--program", str(path), "--moduli", ",".join(map(str, moduli)),
        "--bind", ",".join(f"X{k}={x}" for k, x in enumerate(xs)),
        "--bind", ",".join(f"H{k}={h}" for k, h in enumerate(hs)),
    ])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    return int(out.out)


@pytest.mark.parametrize("bits,moduli,printed", [
    (26, (22, 23, 21, 19, 25, 17), 67076100),  # M = 85804950 > 4 * 4095**2: exact
    (25, (18, 19, 17, 23, 25, 11), 30302550),  # M = 36773550: 4 * 4095**2 mod M, unwarned
])
def test_fir4_all_4095_corner_is_exact_only_below_m(tmp_path, capsys, bits, moduli, printed):
    assert rnskit.find_moduli(rnskit.GenerationRequest(bits, 6))[0].moduli == moduli
    assert _run_fir4(tmp_path, capsys, moduli, [4095] * 4, [4095] * 4) == printed
    assert printed == 4 * 4095**2 % prod(moduli)


def test_readme_fir4_signed_reading(tmp_path, capsys):
    # README: inject -h as M - h, read an output v >= ceil(M/2) as v - M
    moduli = (42, 43, 41, 47, 37, 53)
    total = prod(moduli)
    hs = [3, total - 5, 7, total - 11]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"--bind H0=3,H1={hs[1]},H2=7,H3={hs[3]}" in readme and f"M = {total}" in readme
    out = _run_fir4(tmp_path, capsys, moduli, [1000, 2000, 3000, 4000], hs)
    assert out == 6824567682 and out >= -(-total // 2)
    assert out - total == 3 * 1000 - 5 * 2000 + 7 * 3000 - 11 * 4000 == -30000


def test_readme_fir4_example_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert _fir_text(4) in readme
    path = tmp_path / "fir4.txt"
    path.write_text(_fir_text(4))
    code = cli.main([
        "run", "--program", str(path), "--moduli", "42,43,41,47,37,53",
        "--bind", "X0=1000,X1=2000,X2=3000,X3=4000", "--bind", "H0=3,H1=5,H2=7,H3=11",
    ])
    assert (code, capsys.readouterr().out) == (0, "78000\n")
