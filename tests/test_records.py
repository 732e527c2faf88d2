"""The contract every value type keeps: immutable, comparable, picklable records.

Each of the ten types is checked on one instance: pickle and both
copies give back an equal object with its private caches intact, no
field can be assigned or deleted, the bound slot setters set the slots
in __slots__ order, the constructor takes the same parameters as always
and FIELDS names exactly those, and the repr prints them and no derived
cache. A last test checks that importing the package and its CLI loads
none of the heavy introspection modules.
"""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from rnskit import (
    ComparisonRow,
    GenerationRequest,
    Microprogram,
    ModuliSet,
    RnsContext,
    RnsNumber,
    SchemeId,
    Source,
    Step,
    builtin_function1,
    find_moduli,
    from_rns,
    run,
    to_rns,
    validate,
)
from rnskit.moduli import GenerationTrace, ValidationReport

from helpers import COPIERS

SRC = Path(__file__).resolve().parents[1] / "src"
EMPTY = inspect.Parameter.empty
NONE = Source.NONE

MS = ModuliSet((8, 9, 7))
CTX = RnsContext(MS)
# the first reverse conversion fills the last private slot, the CRT coefficients (() before it)
from_rns(CTX, to_rns(CTX, 36))
SET32, TRACE32 = find_moduli(GenerationRequest(bits=32, cardinality=6))
STEP = Step(inject_a="X", inject_b=3, add_l=Source.IN1, add_r=Source.IN2)
ROW = ComparisonRow(16, SchemeId("proposed", 3), (42, 43, 41), 18, "a note")

# type -> (one instance, its public fields, its private slots)
INSTANCES = {
    ModuliSet: (MS, ("moduli",), ("dynamic_range",)),
    GenerationRequest: (GenerationRequest(32, 6), ("bits", "cardinality"), ()),
    GenerationTrace: (TRACE32, ("x", "extras"), ()),
    SchemeId: (SchemeId("proposed", 4), ("family", "cardinality"), ("label",)),
    ValidationReport: (
        validate(ModuliSet((4, 6, 1)), 20),
        ("small_moduli", "conflicting_pairs", "shortfall"),
        (),
    ),
    RnsContext: (CTX, ("moduli_set",), ("_tree", "_crt_coeffs")),
    RnsNumber: (to_rns(CTX, 36), ("residues", "moduli_set"), ()),
    Step: (
        STEP,
        ("inject_a", "inject_b", "add_l", "add_r", "sub_l", "sub_r", "mul_l", "mul_r", "emit"),
        (),
    ),
    Microprogram: (builtin_function1(), ("name", "steps"), ("_placeholders",)),
    ComparisonRow: (ROW, ("bits", "scheme", "moduli", "bit_cost", "deviation_note"), ()),
}

# the parent's constructor parameters: (name, default) in order
SIGNATURES = {
    ModuliSet: [("moduli", EMPTY)],
    GenerationRequest: [("bits", EMPTY), ("cardinality", EMPTY)],
    GenerationTrace: [("x", EMPTY), ("extras", EMPTY)],
    SchemeId: [("family", EMPTY), ("cardinality", None)],
    ValidationReport: [("small_moduli", EMPTY), ("conflicting_pairs", EMPTY), ("shortfall", EMPTY)],
    RnsContext: [("moduli_set", EMPTY)],
    RnsNumber: [("residues", EMPTY), ("moduli_set", EMPTY)],
    Step: [
        ("inject_a", None), ("inject_b", None),
        ("add_l", NONE), ("add_r", NONE), ("sub_l", NONE), ("sub_r", NONE),
        ("mul_l", NONE), ("mul_r", NONE), ("emit", NONE),
    ],
    Microprogram: [("name", EMPTY), ("steps", EMPTY)],
    ComparisonRow: [
        ("bits", EMPTY), ("scheme", EMPTY), ("moduli", EMPTY), ("bit_cost", EMPTY),
        ("deviation_note", None),
    ],
}

_NONE4 = "sub_l=<Source.NONE: 'NONE'>, sub_r=<Source.NONE: 'NONE'>, mul_l=<Source.NONE: 'NONE'>, mul_r=<Source.NONE: 'NONE'>"
_MS_REPR = "ModuliSet(moduli=(8, 9, 7))"
REPRS = {
    ModuliSet: _MS_REPR,
    GenerationRequest: "GenerationRequest(bits=32, cardinality=6)",
    GenerationTrace: "GenerationTrace(x=41, extras=((58005, 39), (1235, 36), (34, 34)))",
    SchemeId: "SchemeId(family='proposed', cardinality=4)",
    ValidationReport: "ValidationReport(small_moduli=(1,), conflicting_pairs=((4, 6),), shortfall=1048551)",
    RnsContext: f"RnsContext(moduli_set={_MS_REPR})",
    RnsNumber: f"RnsNumber(residues=(4, 0, 1), moduli_set={_MS_REPR})",
    Step: (
        "Step(inject_a='X', inject_b=3, add_l=<Source.IN1: 'IN1'>, add_r=<Source.IN2: 'IN2'>, "
        f"{_NONE4}, emit=<Source.NONE: 'NONE'>)"
    ),
    Microprogram: (
        "Microprogram(name='function1', steps=("
        "Step(inject_a='X', inject_b='Y', add_l=<Source.IN1: 'IN1'>, add_r=<Source.IN2: 'IN2'>, "
        f"{_NONE4}, emit=<Source.NONE: 'NONE'>), "
        "Step(inject_a=None, inject_b='Z', add_l=<Source.NONE: 'NONE'>, add_r=<Source.NONE: 'NONE'>, "
        "sub_l=<Source.NONE: 'NONE'>, sub_r=<Source.NONE: 'NONE'>, mul_l=<Source.ADD: 'ADD'>, "
        "mul_r=<Source.IN2: 'IN2'>, emit=<Source.MUL: 'MUL'>)))"
    ),
    ComparisonRow: (
        "ComparisonRow(bits=16, scheme=SchemeId(family='proposed', cardinality=3), "
        "moduli=(42, 43, 41), bit_cost=18, deviation_note='a note')"
    ),
}

TYPES = list(INSTANCES)


def test_every_value_type_is_covered():
    assert len(TYPES) == 10
    assert set(SIGNATURES) == set(REPRS) == set(TYPES)
    for cls, (obj, _, _) in INSTANCES.items():
        assert type(obj) is cls


@pytest.mark.parametrize("how", list(COPIERS))
@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_round_trip_gives_an_equal_record_with_its_private_slots(cls, how):
    obj, public, private = INSTANCES[cls]
    back = COPIERS[how](obj)
    assert type(back) is cls
    assert back == obj and hash(back) == hash(obj)
    assert repr(back) == repr(obj)
    for name in public + private:
        assert getattr(back, name) == getattr(obj, name), name
    assert not any(getattr(back, name) in ((), None) for name in private)


@pytest.mark.parametrize("how", list(COPIERS))
def test_copied_context_and_programs_still_work(how):
    ctx = COPIERS[how](CTX)
    assert ctx._tree == CTX._tree
    assert from_rns(ctx, to_rns(ctx, 36)) == 36
    prog = COPIERS[how](builtin_function1())
    assert prog._placeholders == (("a", "X"), ("b", "Y"), ("b", "Z"))
    assert run(ctx, prog, {"X": 7, "Y": 5, "Z": 3})[0] == [36]


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_no_field_can_be_assigned_or_deleted(cls):
    obj, public, private = INSTANCES[cls]
    before = repr(obj)
    for name in public + private:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == before


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_an_attribute_outside_the_slots_cannot_be_set(cls):
    obj = INSTANCES[cls][0]
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_setters_set_the_slots_in_slot_order(cls):
    _, public, private = INSTANCES[cls]
    assert cls.__slots__ == public + private
    assert len(cls._SETTERS) == len(cls.__slots__)
    for setter, name in zip(cls._SETTERS, cls.__slots__):
        obj = object.__new__(cls)
        value = object()
        setter(obj, value)
        assert getattr(obj, name) is value
        assert [n for n in cls.__slots__ if hasattr(obj, n)] == [name]


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_unchanged(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert [p.name for p in params] == list(cls.FIELDS)
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_repr_is_unchanged(cls):
    assert repr(INSTANCES[cls][0]) == REPRS[cls]


def test_records_of_different_types_are_never_equal():
    assert SchemeId("sm1") != ("sm1", None)
    assert GenerationTrace(32, 6) != GenerationRequest(32, 6)
    assert GenerationTrace(32, 6) == GenerationTrace(32, 6)
    assert len({SchemeId("sm1"), SchemeId("sm1"), SchemeId("sm2")}) == 2


def test_import_loads_no_introspection_module():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rnskit, rnskit.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == []
