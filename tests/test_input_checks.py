"""Every public entry point checks its int inputs through one helper.

numbers.check_int raises TypeError naming the field unless a value is an
int that is not a bool; given a floor, it then raises the caller's error
with the one message "<field> must be >= <floor>, got <value>".  The
first test walks every entry point that takes an int, with each field's
exact type and message; the others hold the source to one int check, one
floor message and exact integer arithmetic.
"""

import ast
import re
from pathlib import Path

import pytest

import rnskit
from rnskit.datapath import Source, Step, builtin_function1, builtin_function2, run
from rnskit.moduli import (
    CardinalityError,
    GenerationRequest,
    ModuliSet,
    RangeTooSmallError,
    SchemeId,
    baseline,
    validate,
)
from rnskit.numbers import ceil_nth_root, mod_inverse
from rnskit.rns import RnsContext, RnsError, RnsNumber, rns_pow, to_rns

CTX = RnsContext(ModuliSet((8, 9, 7)))
SRC = Path(rnskit.__file__).parent

# entry point -> (a call that passes the value to one field, the label the
# field's messages give it, and None when the field takes any int, else
# (its floor, the exact error type below it, a negative value it rejects))
ENTRY_POINTS = {
    "ModuliSet": (lambda v: ModuliSet((8, v, 7)), "modulus", None),
    "GenerationRequest.bits": (
        lambda v: GenerationRequest(v, 3), "bits", (2, RangeTooSmallError, -1)),
    "GenerationRequest.cardinality": (
        lambda v: GenerationRequest(16, v), "cardinality", (3, CardinalityError, -1)),
    "SchemeId": (lambda v: SchemeId("proposed", v), "cardinality", (3, CardinalityError, -1)),
    "baseline": (lambda v: baseline(SchemeId("sm1"), v), "bits", (2, RangeTooSmallError, -1)),
    "validate": (
        lambda v: validate(ModuliSet((8, 9, 7)), v), "bits", (2, RangeTooSmallError, -5)),
    "RnsNumber": (lambda v: RnsNumber((v, 0, 0), CTX.moduli_set), "residue", (0, RnsError, -1)),
    "to_rns": (lambda v: to_rns(CTX, v), "value", (0, RnsError, -1)),
    "rns_pow": (lambda v: rns_pow(CTX, to_rns(CTX, 3), v), "exponent", (0, RnsError, -1)),
    "Step.inject_a": (
        lambda v: Step(inject_a=v, emit=Source.IN1), "a injection", (0, ValueError, -1)),
    "Step.inject_b": (
        lambda v: Step(inject_b=v, emit=Source.IN2), "b injection", (0, ValueError, -1)),
    "run": (
        lambda v: run(CTX, builtin_function1(), {"X": 7, "Y": 1, "Z": v}),
        "b injection", (0, ValueError, -1)),
    "builtin_function2": (builtin_function2, "exponent", (0, ValueError, -1)),
    "ceil_nth_root.v": (lambda v: ceil_nth_root(v, 2), "v", (1, ValueError, -1)),
    "ceil_nth_root.n": (lambda v: ceil_nth_root(16, v), "n", (1, ValueError, -1)),
    "ceil_nth_root.start": (
        lambda v: ceil_nth_root(16, 2, start=v), "start", (1, ValueError, -1)),
    "mod_inverse.a": (lambda v: mod_inverse(v, 7), "a", None),
    "mod_inverse.m": (lambda v: mod_inverse(3, v), "m", (2, ValueError, -1)),
}
# a str injection is a placeholder name, so "3" fails the identifier check
PLACEHOLDERS = {"Step.inject_a": "a placeholder", "Step.inject_b": "b placeholder"}
# the two range checks that are not a floor on one int field keep their own message
OWN_MESSAGES = {
    "RnsNumber": "residue {} out of range for modulus 8",
    "ceil_nth_root.start": "ceil_nth_root start must be >= 1 with start**n >= v, got {}",
}


def _cases():
    for name, (call, field, floor) in ENTRY_POINTS.items():
        for value in (1.5, "3", True):
            if value == "3" and name in PLACEHOLDERS:
                error, message = ValueError, f"{PLACEHOLDERS[name]} '3' is not an identifier"
            else:
                error, message = TypeError, f"{field} {value!r} is not an int"
            yield pytest.param(call, value, error, message, id=f"{name}-{value!r}")
        if floor is not None:
            least, error, negative = floor
            # a negative value, and the int just below the floor
            for value in dict.fromkeys((negative, least - 1)):
                shape = OWN_MESSAGES.get(name, f"{field} must be >= {least}, got {{}}")
                yield pytest.param(call, value, error, shape.format(value), id=f"{name}-{value}")


@pytest.mark.parametrize("call,value,error,message", list(_cases()))
def test_each_entry_point_rejects_a_bad_value_naming_the_field(call, value, error, message):
    # the exact type and the whole message
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "call,error,message",
    [
        # no cardinality is a missing int, as in GenerationRequest(16, None)
        (lambda: SchemeId("proposed"), TypeError, "cardinality None is not an int"),
        # each argument is checked whole, type then floor, in parameter order
        (lambda: ceil_nth_root(0, 1.5), ValueError, "v must be >= 1, got 0"),
        (lambda: ceil_nth_root(1.5, 0), TypeError, "v 1.5 is not an int"),
        # GenerationRequest alone checks its second argument, cardinality, first
        (lambda: GenerationRequest(1, 2), CardinalityError, "cardinality must be >= 3, got 2"),
    ],
    ids=["SchemeId-None", "ceil_nth_root-v-floor", "ceil_nth_root-v-type", "GenerationRequest"],
)
def test_entry_points_check_each_argument_whole_in_order(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_readme_entry_point_table_lists_every_entry_point():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| entry point | field | range |\n|---|---|---|\n", 1)[1]
    listed = " ".join(re.findall(r"^\| (.+?) \|", table.split("\n\n", 1)[0], re.M))
    names = dict.fromkeys(name.split(".")[0] for name in ENTRY_POINTS)
    assert [name for name in names if f"`{name}(" not in listed] == []


def _int_checks(tree: ast.AST) -> list[ast.Call]:
    """Every isinstance call whose type argument names int or bool."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and any(getattr(kind, "id", None) in ("int", "bool") for kind in ast.walk(node.args[1]))
    ]


# constant f-string text that states a floor right before a formatted value:
# "must be >= " before the floor, or "must be >= 2, got " before the value
_FLOOR_TEXT = re.compile(r"must be >= (-?\d+, got )?$")


def _floor_messages(tree: ast.AST) -> list[ast.JoinedStr]:
    """Every f-string whose constant text states a floor right before a value."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr) and any(
            isinstance(text, ast.Constant) and _FLOOR_TEXT.search(str(text.value))
            and isinstance(value, ast.FormattedValue)
            for text, value in zip(node.values, node.values[1:])
        )
    ]


def _violations(source: str, filename: str) -> list[str]:
    """Each int check or floor message outside numbers.check_int, float
    literal or name, and true division in source, as 'file:line: what'."""
    tree = ast.parse(source)
    allowed = set()
    if filename == "numbers.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "check_int":
                allowed = {id(check) for check in _int_checks(node) + _floor_messages(node)}
    found = [
        f"{filename}:{node.lineno}: isinstance against int or bool"
        for node in _int_checks(tree) if id(node) not in allowed
    ]
    found += [
        f"{filename}:{node.lineno}: floor message outside check_int"
        for node in _floor_messages(tree) if id(node) not in allowed
    ]
    for node in ast.walk(tree):
        where = f"{filename}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: name float")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
    return found


def test_source_has_one_int_check_and_no_floating_point():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert "numbers.py" in sources
    assert [v for name, text in sources.items() for v in _violations(text, name)] == []
    # the one int check and the one floor message left are inside check_int
    trees = [ast.parse(text) for text in sources.values()]
    assert len([c for tree in trees for c in _int_checks(tree)]) == 1
    assert len([m for tree in trees for m in _floor_messages(tree)]) == 1


@pytest.mark.parametrize(
    "source,what",
    [
        ("ok = isinstance(v, int)", "isinstance against int or bool"),
        ("ok = isinstance(v, (str, bool))", "isinstance against int or bool"),
        ("x = 0.5", "float literal 0.5"),
        ("x = 1e3", "float literal 1000.0"),
        ("x = float(y)", "name float"),
        ("x = a / b", "true division"),
        ("x /= 2", "true division"),
        ('raise ValueError(f"e must be >= {k}, got {e}")', "floor message outside check_int"),
        ('raise RnsError(f"exponent must be >= 0, got {e}")', "floor message outside check_int"),
        ('m = f"{label} must be >= {least}"', "floor message outside check_int"),
    ],
)
def test_the_source_scan_finds_each_forbidden_node(source, what):
    assert _violations(source, "moduli.py") == [f"moduli.py:1: {what}"]


def test_the_source_scan_allows_the_check_only_inside_check_int():
    source = "def check_int(label, value):\n    return isinstance(value, int)\n"
    assert _violations(source, "numbers.py") == []
    assert _violations(source, "rns.py") == ["rns.py:2: isinstance against int or bool"]
    source = 'def check_int(label, value, least):\n    return f"{label} must be >= {least}"\n'
    assert _violations(source, "numbers.py") == []
    assert _violations(source, "rns.py") == ["rns.py:2: floor message outside check_int"]
    # a floor stated with more text after it, or with no value, is not the shape
    assert _violations('m = f"start must be >= 1 with start**n >= v, got {s}"', "rns.py") == []
    assert _violations('m = "n must be >= 1"', "rns.py") == []
    # integer forms stay allowed: floor division, type identity, int literals
    assert _violations("x = a // b if type(a) is int else 2 ** 3", "rns.py") == []
