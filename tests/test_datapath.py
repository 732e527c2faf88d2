import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnskit import datapath
from rnskit.datapath import (
    DatapathState,
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
    step,
)
from rnskit.moduli import ModuliSet
from rnskit.rns import RnsContext, to_rns

CTX = RnsContext(ModuliSet((8, 9, 7)))


# --- single-step semantics ------------------------------------------------------


def test_injections_only():
    state = step(CTX, DatapathState(), Step(inject_a=7, inject_b=5))
    assert state.latches[Source.IN1] == to_rns(CTX, 7)
    assert state.latches[Source.IN2] == to_rns(CTX, 5)
    assert state.outputs == []


def test_add_step_after_injection():
    state = step(CTX, DatapathState(), Step(inject_a=7, inject_b=5))
    step(CTX, state, Step(add_l=Source.IN1, add_r=Source.IN2))
    assert state.latches[Source.ADD] == to_rns(CTX, 12)


def test_emit_step():
    state = step(CTX, DatapathState(), Step(inject_a=7, inject_b=5))
    step(CTX, state, Step(add_l=Source.IN1, add_r=Source.IN2))
    step(CTX, state, Step(emit=Source.ADD))
    assert state.outputs == [12]


def test_same_step_injection_is_visible_to_units():
    state = step(
        CTX,
        DatapathState(),
        Step(inject_a=7, inject_b=5, add_l=Source.IN1, add_r=Source.IN2),
    )
    assert state.latches[Source.ADD] == to_rns(CTX, 12)


def test_undefined_latch_read_faults_with_location():
    with pytest.raises(RunFault) as exc:
        step(CTX, DatapathState(), Step(add_l=Source.IN1, add_r=Source.IN2), index=4)
    assert exc.value.step_index == 4
    assert exc.value.source == Source.IN1
    assert "step 4" in str(exc.value)
    assert "IN1" in str(exc.value)


def test_emit_of_undefined_latch_faults():
    with pytest.raises(RunFault):
        step(CTX, DatapathState(), Step(emit=Source.MUL))


def test_half_selected_unit_rejected():
    with pytest.raises(ValueError):
        Step(add_l=Source.IN1)


def test_unresolved_placeholder_in_step_rejected():
    with pytest.raises(UnboundPlaceholderError):
        step(CTX, DatapathState(), Step(inject_a="X"))


# --- program runs ------------------------------------------------------------------


def test_function1_basic():
    outputs, trace = run(CTX, builtin_function1(), {"X": 7, "Y": 5, "Z": 3})
    assert outputs == [36]
    assert len(trace) == 3


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
    ],
)
def test_bad_bound_value_rejected_before_any_step(monkeypatch, bindings):
    executed = []
    monkeypatch.setattr(datapath, "step", lambda *args, **kwargs: executed.append(args))
    with pytest.raises(ValueError):
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


def test_step_reads_bindings_from_state():
    state = step(CTX, DatapathState(bindings={"X": 7}), Step(inject_a="X", inject_b=5))
    assert state.latches[Source.IN1] == to_rns(CTX, 7)


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


def test_parse_emit_field():
    prog = parse_program("PROG p\nSTEP a=1 emit=IN1\nSTEP emit=MUL\nEND\n")
    assert prog.steps[1].emit == Source.MUL


def test_parse_comments_and_blank_lines():
    text = "# header comment\nPROG p\n\n# mid comment\nSTEP a=7\nEND\n"
    prog = parse_program(text)
    assert prog.name == "p"
    assert prog.steps == (Step(inject_a=7),)


def test_parse_placeholder():
    prog = parse_program("PROG p\nSTEP a=$X b=3\nEND\n")
    assert prog.steps[0].inject_a == "X"
    assert prog.steps[0].inject_b == 3


def test_parse_unknown_source_names_token_and_line():
    with pytest.raises(ProgramParseError) as exc:
        parse_program("PROG p\nSTEP add=IN1,BAD\nEND\n")
    (line, message), = exc.value.diagnostics
    assert line == 2
    assert "'BAD'" in message


def test_parse_duplicate_field():
    with pytest.raises(ProgramParseError) as exc:
        parse_program("PROG p\nSTEP a=1 a=2\nEND\n")
    assert "duplicate" in exc.value.diagnostics[0][1]


def test_parse_malformed_field():
    with pytest.raises(ProgramParseError) as exc:
        parse_program("PROG p\nSTEP bogus=3\nEND\n")
    assert "malformed" in exc.value.diagnostics[0][1]


def test_parse_single_source_for_unit():
    with pytest.raises(ProgramParseError) as exc:
        parse_program("PROG p\nSTEP mul=IN1\nEND\n")
    assert "two sources" in exc.value.diagnostics[0][1]


def test_parse_bad_decimal():
    with pytest.raises(ProgramParseError):
        parse_program("PROG p\nSTEP a=-3\nEND\n")


@pytest.mark.parametrize("text", ["+3", "\u00b2", "\u0663", "1_0"])
def test_parse_value_takes_plain_decimals_only(text):
    with pytest.raises(ProgramParseError) as exc:
        parse_program(f"PROG p\nSTEP a={text}\nEND\n")
    assert exc.value.diagnostics == [(2, f"bad unsigned decimal {text!r}")]


def test_parse_missing_header():
    with pytest.raises(ProgramParseError) as exc:
        parse_program("STEP a=1\nEND\n")
    assert any("PROG" in message for _, message in exc.value.diagnostics)


def test_parse_missing_end():
    with pytest.raises(ProgramParseError) as exc:
        parse_program("PROG p\nSTEP a=1\n")
    assert any("END" in message for _, message in exc.value.diagnostics)


def test_parse_empty_text():
    with pytest.raises(ProgramParseError):
        parse_program("")


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
def _steps(draw):
    add = draw(_select_pairs)
    sub = draw(_select_pairs)
    mul = draw(_select_pairs)
    return Step(
        inject_a=draw(_injections),
        inject_b=draw(_injections),
        add_l=add[0], add_r=add[1],
        sub_l=sub[0], sub_r=sub[1],
        mul_l=mul[0], mul_r=mul[1],
        emit=draw(st.one_of(st.just(Source.NONE), _sources)),
    )


@given(
    name=st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,12}", fullmatch=True),
    steps=st.lists(_steps(), max_size=6),
)
@settings(max_examples=200)
def test_render_parse_roundtrip_property(name, steps):
    prog = Microprogram(name=name, steps=tuple(steps))
    assert parse_program(render_program(prog)) == prog
