"""Cycle-stepped simulator of a reconfigurable residue datapath.

The machine has two forward converters feeding the IN1/IN2 latches, one
adder, one subtractor and one multiplier, each behind a pair of source
selects, and one output select feeding the reverse converter.  A
microprogram is an ordered list of steps; each step may inject binary
values, activate any subset of the units, and emit one latch.

Within a step: injections land first, then every active unit reads its
two selected latches as they stand after injection, then all unit results
latch simultaneously, then the emit select (if any) reverse-converts the
post-update latch.  Reading a latch that was never written is a fault,
not a silent zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .numbers import parse_decimal
from .rns import RnsContext, RnsNumber, from_rns, rns_add, rns_mul, rns_sub, to_rns

__all__ = [
    "Source",
    "Step",
    "Microprogram",
    "RunFault",
    "UnboundPlaceholderError",
    "ProgramParseError",
    "run",
    "builtin_function1",
    "builtin_function2",
    "parse_program",
    "render_program",
]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Source(Enum):
    """A latch that a unit input or the output select can read."""

    IN1 = "IN1"
    IN2 = "IN2"
    ADD = "ADD"
    SUB = "SUB"
    MUL = "MUL"
    NONE = "NONE"

    # members compare by identity; Enum's own __hash__ is a Python call
    __hash__ = object.__hash__


# module globals: an Enum class attribute read costs ~150 ns in CPython 3.11
_IN1, _IN2, _ADD, _SUB, _MUL, _NONE = Source


class RunFault(RuntimeError):
    """A step read a latch that has never been written."""

    def __init__(self, step_index: int, source: Source):
        self.step_index = step_index
        self.source = source
        super().__init__(f"step {step_index}: read of undefined latch {source.value}")


class UnboundPlaceholderError(ValueError):
    """A program placeholder has no binding."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound placeholder ${name}")


class ProgramParseError(ValueError):
    """One or more line-numbered diagnostics from the program parser."""

    def __init__(self, diagnostics: list[tuple[int, str]]):
        self.diagnostics = list(diagnostics)
        super().__init__(
            "; ".join(f"line {n}: {msg}" for n, msg in self.diagnostics)
        )


def _check_unsigned(label: str, value) -> None:
    if not isinstance(value, int):
        raise ValueError(f"{label} injection must be an int or placeholder name")
    if value < 0:
        raise ValueError(f"{label} injection must be unsigned, got {value}")


def _check_injection(label: str, value) -> None:
    if value is None:
        return
    if isinstance(value, str):
        if not _IDENT.match(value):
            raise ValueError(f"{label} placeholder {value!r} is not an identifier")
    elif isinstance(value, bool):
        raise ValueError(f"{label} injection must be an int or placeholder name")
    else:
        _check_unsigned(label, value)


@dataclass(frozen=True, slots=True)
class Step:
    """One microprogram step: injections, unit selects, and the emit select.

    inject_a / inject_b are unsigned ints (not bools), placeholder names
    bound at run time, or None.  A unit computes this step iff both of its
    selects are non-NONE; half-selected units are rejected at construction.
    """

    inject_a: int | str | None = None
    inject_b: int | str | None = None
    add_l: Source = Source.NONE
    add_r: Source = Source.NONE
    sub_l: Source = Source.NONE
    sub_r: Source = Source.NONE
    mul_l: Source = Source.NONE
    mul_r: Source = Source.NONE
    emit: Source = Source.NONE

    def __post_init__(self) -> None:
        _check_injection("a", self.inject_a)
        _check_injection("b", self.inject_b)
        for name, l, r in _unit_selects(self):
            if (l is Source.NONE) != (r is Source.NONE):
                raise ValueError(f"{name} selects must both be set or both NONE")


def _unit_selects(s: Step) -> tuple[tuple[str, Source, Source], ...]:
    return (("add", s.add_l, s.add_r), ("sub", s.sub_l, s.sub_r), ("mul", s.mul_l, s.mul_r))


@dataclass(frozen=True, slots=True)
class Microprogram:
    """Named, ordered list of steps, executed once each in order."""

    name: str
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        # a non-empty token is exactly the one piece that split() leaves
        if self.name.split() != [self.name]:
            raise ValueError(f"program name must be a non-empty token, got {self.name!r}")
        object.__setattr__(self, "steps", tuple(self.steps))


def step(
    ctx: RnsContext, latches: dict[Source, RnsNumber], outputs: list[int],
    bindings: dict[str, int], s: Step, index: int,
) -> None:
    """Execute step `index` of a run in place: run's per-cycle helper.

    Order inside the step: injections overwrite IN1/IN2 (placeholders are
    read from bindings, which run has checked), active units read the
    post-injection latches, all unit results latch at once, and the emit
    select (post-update) appends one reverse-converted output.
    """
    a, b = s.inject_a, s.inject_b
    if a is not None:
        latches[_IN1] = to_rns(ctx, bindings[a] if isinstance(a, str) else a)
    if b is not None:
        latches[_IN2] = to_rns(ctx, bindings[b] if isinstance(b, str) else b)

    # every unit reads before any result latches, so one step's units
    # see the previous step's ADD/SUB/MUL, never each other's new ones
    try:
        add = None if s.add_l is _NONE else rns_add(ctx, latches[s.add_l], latches[s.add_r])
        sub = None if s.sub_l is _NONE else rns_sub(ctx, latches[s.sub_l], latches[s.sub_r])
        mul = None if s.mul_l is _NONE else rns_mul(ctx, latches[s.mul_l], latches[s.mul_r])
        if add is not None:
            latches[_ADD] = add
        if sub is not None:
            latches[_SUB] = sub
        if mul is not None:
            latches[_MUL] = mul
        if s.emit is not _NONE:
            outputs.append(from_rns(ctx, latches[s.emit]))
    except KeyError as exc:
        raise RunFault(index, exc.args[0]) from None


def run(
    ctx: RnsContext, prog: Microprogram, bindings: dict[str, int] | None = None
) -> tuple[list[int], list[dict[Source, RnsNumber]]]:
    """Run a program and return (outputs, per-step latch snapshots).

    Before the first step executes, every placeholder must be bound to an
    unsigned int (checked in step order, a before b); a read of an
    undefined latch raises RunFault carrying the step index.
    """
    bindings = bindings or {}
    for s in prog.steps:
        # most steps inject no placeholder; they need no (label, name) pairs
        if isinstance(s.inject_a, str) or isinstance(s.inject_b, str):
            for label, name in (("a", s.inject_a), ("b", s.inject_b)):
                if isinstance(name, str):
                    if name not in bindings:
                        raise UnboundPlaceholderError(name)
                    _check_unsigned(label, bindings[name])
    latches: dict[Source, RnsNumber] = {}
    outputs: list[int] = []
    trace: list[dict[Source, RnsNumber]] = []
    for i, s in enumerate(prog.steps):
        step(ctx, latches, outputs, bindings, s, i)
        trace.append(latches.copy())
    return outputs, trace


# --- Built-in programs -------------------------------------------------------


# Programs are immutable, so the built-ins are assembled from steps built
# and validated once, here; a call only puts references into a tuple.
_FUNCTION1 = Microprogram("function1", (
    Step(inject_a="X", inject_b="Y", add_l=Source.IN1, add_r=Source.IN2),
    Step(inject_b="Z", mul_l=Source.ADD, mul_r=Source.IN2),
    Step(emit=Source.MUL),
))
_POW_BELOW_2 = ((Step(inject_a=1, emit=Source.IN1),), (Step(inject_a="X", emit=Source.IN1),))
_POW_HEAD = (Step(inject_a="X", inject_b="X"), Step(mul_l=Source.IN1, mul_r=Source.IN2))
_POW_LOOP = Step(mul_l=Source.MUL, mul_r=Source.IN1)
_POW_EMIT = Step(emit=Source.MUL)


def builtin_function1() -> Microprogram:
    """(X + Y) * Z: add the first two inputs, scale by the third, emit.

    Step 1 injects X and Y and routes both input latches to the adder;
    step 2 reuses the second converter for Z and routes the adder latch
    and Z to the multiplier; step 3 emits the multiplier latch.  Every
    call returns the one immutable program built at import.
    """
    return _FUNCTION1


def builtin_function2(e: int) -> Microprogram:
    """X ** e by repeated multiplication, unrolled at build time.

    e == 0 emits an injected constant 1 and e == 1 emits X directly;
    otherwise X is injected into both converters and e - 1 multiply steps
    accumulate into the multiplier latch before the emit.  A call puts e + 1
    references to shared steps, validated once at import, into a tuple.
    """
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    if e < 2:
        return Microprogram("function2", _POW_BELOW_2[e])
    return Microprogram("function2", _POW_HEAD + (_POW_LOOP,) * (e - 2) + (_POW_EMIT,))


# --- Program text format -----------------------------------------------------
#
#   PROG <name>
#   STEP [a=<dec|$id>] [b=<dec|$id>] [add=<src>,<src>] [sub=<src>,<src>]
#        [mul=<src>,<src>] [emit=<src>]
#   END
#
# <src> is one of IN1, IN2, ADD, SUB, MUL; omitted unit fields mean the
# unit is idle.  Lines starting with '#' are comments.

_SOURCE_TOKENS = {s.value: s for s in Source if s is not Source.NONE}
# field key -> the Step attributes it sets
_STEP_FIELDS = {
    "a": ("inject_a",),
    "b": ("inject_b",),
    "add": ("add_l", "add_r"),
    "sub": ("sub_l", "sub_r"),
    "mul": ("mul_l", "mul_r"),
    "emit": ("emit",),
}


def _parse_value(text: str):
    # Step checks the identifier and the sign; this only reads the token
    if text.startswith("$"):
        return text[1:]
    value = parse_decimal(text)
    if value is None:
        raise ValueError(f"bad unsigned decimal {text!r}")
    return value


def _parse_source(text: str) -> Source:
    try:
        return _SOURCE_TOKENS[text]
    except KeyError:
        raise ValueError(f"unknown source token {text!r}") from None


def _parse_step_line(tokens: list[str]) -> Step:
    kwargs: dict = {}
    for token in tokens:
        key, sep, text = token.partition("=")
        attrs = _STEP_FIELDS.get(key) if sep else None
        if attrs is None:
            raise ValueError(f"malformed field {token!r}")
        if attrs[0] in kwargs:
            raise ValueError(f"duplicate field {key!r}")
        if key in ("a", "b"):
            kwargs[attrs[0]] = _parse_value(text)
        elif key == "emit":
            kwargs["emit"] = _parse_source(text)
        else:
            parts = text.split(",")
            if len(parts) != 2:
                raise ValueError(f"field {key!r} needs exactly two sources")
            kwargs.update(zip(attrs, map(_parse_source, parts)))
    return Step(**kwargs)


def parse_program(text: str) -> Microprogram:
    """Parse program text, collecting line-numbered diagnostics on failure."""
    diagnostics: list[tuple[int, str]] = []
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((number, stripped))

    if not lines:
        raise ProgramParseError([(1, "empty program: missing PROG header")])

    name = None
    number, header = lines[0]
    parts = header.split()
    if len(parts) == 2 and parts[0] == "PROG":
        name = parts[1]
    else:
        diagnostics.append((number, "expected 'PROG <name>' header"))

    last_number, footer = lines[-1]
    has_end = footer == "END" and len(lines) > 1
    if not has_end:
        diagnostics.append((last_number, "missing END terminator"))

    steps = []
    body = lines[1:-1] if has_end else lines[1:]
    for number, line in body:
        keyword, *fields = line.split()
        if keyword != "STEP":
            diagnostics.append((number, f"expected STEP line, got {keyword!r}"))
            continue
        try:
            steps.append(_parse_step_line(fields))
        except ValueError as exc:
            diagnostics.append((number, str(exc)))

    if diagnostics:
        diagnostics.sort(key=lambda d: d[0])
        raise ProgramParseError(diagnostics)
    return Microprogram(name=name, steps=tuple(steps))


def _render_value(value) -> str:
    return f"${value}" if isinstance(value, str) else str(value)


def render_program(prog: Microprogram) -> str:
    """Render a program to the text format; parse(render(p)) == p."""
    lines = [f"PROG {prog.name}"]
    for s in prog.steps:
        parts = ["STEP"]
        if s.inject_a is not None:
            parts.append(f"a={_render_value(s.inject_a)}")
        if s.inject_b is not None:
            parts.append(f"b={_render_value(s.inject_b)}")
        for key, l, r in _unit_selects(s):
            if l is not Source.NONE:
                parts.append(f"{key}={l.value},{r.value}")
        if s.emit is not Source.NONE:
            parts.append(f"emit={s.emit.value}")
        lines.append(" ".join(parts))
    lines.append("END")
    return "\n".join(lines) + "\n"
