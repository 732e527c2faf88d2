import random
from dataclasses import dataclass, field

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
    with pytest.raises(ValueError, match=f"^{label} injection must be an int or placeholder name$"):
        Step(**kwargs, emit=Source.IN1)


def test_bool_bound_value_accepted():
    # a bound value is checked as to_rns checks it: bool counts as int
    outputs, _ = run(CTX, builtin_function1(), {"X": True, "Y": 1, "Z": 3})
    assert outputs == [6]


def test_run_is_the_only_public_entry_point(monkeypatch):
    assert "step" not in rnskit.__all__
    assert "DatapathState" not in rnskit.__all__
    assert not hasattr(datapath, "DatapathState")
    # run calls the module's step once per cycle, with the cycle's index
    indices = []
    inner = datapath.step

    def counted(ctx, latches, outputs, bindings, s, index):
        indices.append(index)
        inner(ctx, latches, outputs, bindings, s, index)

    monkeypatch.setattr(datapath, "step", counted)
    outputs, _ = run(CTX, builtin_function2(5), {"X": 2})
    assert outputs == [32]
    assert indices == list(range(6))


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


def _fresh_function1():
    return Microprogram(
        name="function1",
        steps=(
            Step(inject_a="X", inject_b="Y", add_l=Source.IN1, add_r=Source.IN2),
            Step(inject_b="Z", mul_l=Source.ADD, mul_r=Source.IN2),
            Step(emit=Source.MUL),
        ),
    )


def _fresh_function2(e):
    if e == 0:
        steps = [Step(inject_a=1, emit=Source.IN1)]
    elif e == 1:
        steps = [Step(inject_a="X", emit=Source.IN1)]
    else:
        steps = [Step(inject_a="X", inject_b="X"), Step(mul_l=Source.IN1, mul_r=Source.IN2)]
        steps += [Step(mul_l=Source.MUL, mul_r=Source.IN1) for _ in range(e - 2)]
        steps.append(Step(emit=Source.MUL))
    return Microprogram(name="function2", steps=tuple(steps))


@pytest.mark.parametrize("e", [*range(41), cli.MAX_EXPONENT])
def test_shared_step_function2_equals_fresh_build(e):
    prog = builtin_function2(e)
    assert prog == _fresh_function2(e)
    assert len(prog.steps) == (1 if e < 2 else e + 1)
    assert parse_program(render_program(prog)) == prog
    assert builtin_function2(e) == prog


def test_shared_function1_equals_fresh_build():
    assert builtin_function1() == _fresh_function1()
    assert builtin_function1() == builtin_function1()


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


@pytest.mark.parametrize(
    "field,kwargs,message",
    [
        ("a=-3", {"inject_a": -3}, "a injection must be unsigned, got -3"),
        ("a=$1x", {"inject_a": "1x"}, "a placeholder '1x' is not an identifier"),
        ("b=$", {"inject_b": ""}, "b placeholder '' is not an identifier"),
        ("b=$X-1", {"inject_b": "X-1"}, "b placeholder 'X-1' is not an identifier"),
    ],
)
def test_parse_reports_the_step_injection_check(field, kwargs, message):
    with pytest.raises(ValueError) as direct:
        Step(**kwargs)
    assert str(direct.value) == message
    with pytest.raises(ProgramParseError) as exc:
        parse_program(f"PROG p\nSTEP {field} emit=IN1\nEND\n")
    assert exc.value.diagnostics == [(2, message)]


def test_parse_tab_after_step_keyword():
    prog = parse_program("PROG p\nSTEP\ta=1 emit=IN1\nEND\n")
    assert prog.steps == (Step(inject_a=1, emit=Source.IN1),)


def test_parse_other_keyword_keeps_its_line_numbered_diagnostic():
    with pytest.raises(ProgramParseError) as exc:
        parse_program("PROG p\nSTEP a=1\nSTEPS\ta=2\nEND\n")
    assert exc.value.diagnostics == [(3, "expected STEP line, got 'STEPS'")]


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


@given(
    name=st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,12}", fullmatch=True),
    steps=st.lists(_steps(), max_size=6),
)
@settings(max_examples=200)
def test_render_parse_roundtrip_property(name, steps):
    prog = Microprogram(name=name, steps=tuple(steps))
    assert parse_program(render_program(prog)) == prog


@given(s=_steps(), data=st.data())
@settings(max_examples=200)
def test_step_line_in_any_field_order_parses_to_the_step(s, data):
    fields = render_program(Microprogram("p", (s,))).splitlines()[1].split()[1:]
    shuffled = data.draw(st.permutations(fields))
    assert parse_program("PROG p\nSTEP " + " ".join(shuffled) + "\nEND\n").steps == (s,)


# The step-line parser as it stood when it re-checked identifiers and
# signs itself and read the fields in three passes, kept verbatim as the
# reference for which lines are accepted and what they build.
_REFERENCE_STEP_KEYS = ("a", "b", "add", "sub", "mul", "emit")


def _reference_parse_value(text):
    if text.startswith("$"):
        name = text[1:]
        if not datapath._IDENT.match(name):
            raise ValueError(f"bad placeholder {text!r}")
        return name
    value = datapath.parse_decimal(text)
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
                datapath._check_unsigned(label, bindings[name])
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
    except (RunFault, UnboundPlaceholderError, ValueError) as exc:
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
