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

from enum import Enum

from ._record import Record
from .numbers import check_int, read_decimal
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


def _check_injection(label: str, value) -> None:
    if isinstance(value, str):
        # for ASCII text this is exactly [A-Za-z_][A-Za-z0-9_]*
        if not (value.isascii() and value.isidentifier()):
            raise ValueError(f"{label} placeholder {value!r} is not an identifier")
    elif value is not None:
        check_int(f"{label} injection", value, 0)


class Step(Record):
    """One microprogram step: injections, unit selects, and the emit select.

    inject_a / inject_b are unsigned ints (TypeError for a bool or non-int),
    placeholder names bound at run time, or None.  Every select is a Source.
    A unit computes this step iff both of its selects are non-NONE;
    half-selected units are rejected.  Microprogram finds the placeholders.
    """

    FIELDS = ("inject_a", "inject_b", "add_l", "add_r", "sub_l", "sub_r", "mul_l", "mul_r", "emit")
    __slots__ = FIELDS

    def __init__(
        self, inject_a: int | str | None = None, inject_b: int | str | None = None,
        add_l: Source = _NONE, add_r: Source = _NONE, sub_l: Source = _NONE,
        sub_r: Source = _NONE, mul_l: Source = _NONE, mul_r: Source = _NONE, emit: Source = _NONE,
    ) -> None:
        _check_injection("a", inject_a)
        _check_injection("b", inject_b)
        values = (inject_a, inject_b, add_l, add_r, sub_l, sub_r, mul_l, mul_r, emit)
        for name, value in zip(self.FIELDS[2:], values[2:]):
            if not isinstance(value, Source):
                raise TypeError(f"{name} must be a Source, got {value!r}")
        for name, l, r in (("add", add_l, add_r), ("sub", sub_l, sub_r), ("mul", mul_l, mul_r)):
            if (l is _NONE) != (r is _NONE):
                raise ValueError(f"{name} selects must both be set or both NONE")
        self.__setstate__(values)


class Microprogram(Record):
    """Named, ordered list of steps, executed once each in order.

    The (label, name) placeholder pairs, a before b in step order, are
    found here by one scan of the steps, so run checks its bindings
    without scanning them; they are left out of equality, hash and repr.
    """

    FIELDS = ("name", "steps")
    __slots__ = (*FIELDS, "_placeholders")

    def __init__(self, name: str, steps: tuple[Step, ...]) -> None:
        if not isinstance(name, str):
            raise TypeError(f"program name {name!r} is not a str")
        # a non-empty token is exactly the one piece that split() leaves
        if name.split() != [name]:
            raise ValueError(f"program name must be a non-empty token, got {name!r}")
        steps = tuple(steps)
        for s in steps:
            if not isinstance(s, Step):
                raise TypeError(f"step {s!r} is not a Step")
        pairs = tuple((label, value) for s in steps
                      for label, value in (("a", s.inject_a), ("b", s.inject_b))
                      if isinstance(value, str))
        self.__setstate__((name, steps, pairs))


def step(
    ctx: RnsContext, latches: dict[Source, RnsNumber], outputs: list[int],
    bindings: dict[str, int], s: Step,
) -> None:
    """Run's per-cycle kernel: one step in place, in the module docstring's
    order, on bindings run has checked; an unwritten latch read raises KeyError(source).
    """
    a, b = s.inject_a, s.inject_b
    if a is not None:
        latches[_IN1] = to_rns(ctx, bindings[a] if isinstance(a, str) else a)
    if b is not None:
        latches[_IN2] = to_rns(ctx, bindings[b] if isinstance(b, str) else b)

    # every unit reads before any result latches, so one step's units
    # see the previous step's ADD/SUB/MUL, never each other's new ones
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


def run(
    ctx: RnsContext, prog: Microprogram, bindings: dict[str, int] | None = None
) -> tuple[list[int], list[dict[Source, RnsNumber]]]:
    """Run a program and return (outputs, per-step latch snapshots).

    Before the first step, each placeholder must be bound to an unsigned
    int, not a bool (checked in step order, a before b, as Step checks an
    injection).  A read of an undefined latch raises RunFault with its step.
    """
    bindings = bindings or {}
    for label, name in prog._placeholders:
        if name not in bindings:
            raise UnboundPlaceholderError(name)
        value = bindings[name]
        # a plain unsigned int passes here; any other value gets the full check
        if type(value) is not int or value < 0:
            check_int(f"{label} injection", value, 0)
    latches: dict[Source, RnsNumber] = {}
    outputs: list[int] = []
    trace: list[dict[Source, RnsNumber]] = []
    try:
        for i, s in enumerate(prog.steps):
            step(ctx, latches, outputs, bindings, s)
            trace.append(latches.copy())
    except KeyError as exc:
        raise RunFault(i, exc.args[0]) from None
    return outputs, trace


# --- Built-in programs -------------------------------------------------------


# Programs are immutable, so the built-ins are assembled from steps and
# records built and validated once, here; a call at most puts references
# into a tuple.
_FUNCTION1 = Microprogram("function1", (
    Step(inject_a="X", inject_b="Y", add_l=Source.IN1, add_r=Source.IN2),
    Step(inject_b="Z", mul_l=Source.ADD, mul_r=Source.IN2, emit=Source.MUL),
))
_POW_BELOW_2 = (
    Microprogram("function2", (Step(inject_a=1, emit=Source.IN1),)),
    Microprogram("function2", (Step(inject_a="X", emit=Source.IN1),)),
)
# start (inject X, square it), square, times X: each plain and emitting; only
# the start injects, $X as function2(1) does, so all e >= 1 share its record
_POW_START, _POW_SQUARE, _POW_TIMES_X = (
    (Step(inject_a=a, mul_l=l, mul_r=r), Step(inject_a=a, mul_l=l, mul_r=r, emit=_MUL))
    for a, l, r in (("X", _IN1, _IN1), (None, _MUL, _MUL), (None, _MUL, _IN1)))


def builtin_function1() -> Microprogram:
    """(X + Y) * Z: add the first two inputs, scale by the third, emit.

    Step 1 injects X and Y and routes both input latches to the adder;
    step 2 reuses the second converter for Z, routes the adder latch and Z
    to the multiplier and emits its post-update latch.  Every call returns
    the one immutable program built at import.
    """
    return _FUNCTION1


def builtin_function2(e: int) -> Microprogram:
    """X ** e by left-to-right square-and-multiply, in floor(log2 e) + popcount(e) - 1 cycles.

    e == 0 emits an injected 1 and e == 1 emits X.  Else one step injects X
    and squares IN1; each later bit of e below the leading one squares the
    multiplier latch, each set bit then multiplies it by X, and the last
    step emits: e = 0b1101 runs inject X * X, * X, square, square, * X with
    emit.  e is an int >= 0, not a bool; e < 2 returns a shared program,
    e >= 2 one tuple of shared steps, all reading X through one converter.
    """
    check_int("exponent", e, 0)
    if e < 2:
        return _POW_BELOW_2[e]
    # a bit below the leading one is a square "0", then if set a times X "x";
    # the first square is the start's, and each step is appended one late
    steps, last = [], _POW_START
    for code in bin(e)[3:].replace("1", "0x")[1:]:
        steps.append(last[0])
        last = _POW_TIMES_X if code == "x" else _POW_SQUARE
    steps.append(last[1])
    prog = object.__new__(Microprogram)
    prog.__setstate__(("function2", tuple(steps), _POW_BELOW_2[1]._placeholders))
    return prog


# --- Program text format -----------------------------------------------------
#
#   PROG <name>
#   STEP [a=<dec|$id>] [b=<dec|$id>] [add=<src>,<src>] [sub=<src>,<src>]
#        [mul=<src>,<src>] [emit=<src>]
#   END
#
# <src> is one of IN1, IN2, ADD, SUB, MUL; omitted unit fields mean the
# unit is idle.  A line ends only at \n, \r\n or \r; '#' lines are comments.

_SOURCE_TOKENS = {s.value: s for s in Source if s is not Source.NONE}
# field key -> the Step attributes it sets, parsed one value each; render keeps this order
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
    return text[1:] if text.startswith("$") else read_decimal(text, "unsigned decimal")


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
        parts = text.split(",") if len(attrs) == 2 else [text]
        if len(parts) != len(attrs):
            raise ValueError(f"field {key!r} needs exactly two sources")
        parse = _parse_value if key in ("a", "b") else _parse_source
        kwargs.update(zip(attrs, map(parse, parts)))
    return Step(**kwargs)


def parse_program(text: str) -> Microprogram:
    """Parse program text, collecting line-numbered diagnostics on failure."""
    diagnostics: list[tuple[int, str]] = []
    lines = []
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for number, raw in enumerate(text.split("\n"), start=1):
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
    if isinstance(value, Source):
        return value.value
    return f"${value}" if isinstance(value, str) else str(value)


def render_program(prog: Microprogram) -> str:
    """Render a program to the text format; parse(render(p)) == p.

    A literal injection over 4300 digits, which parse rejects, raises int-to-str's ValueError.
    """
    lines = [f"PROG {prog.name}"]
    for s in prog.steps:
        parts = ["STEP"]
        for key, attrs in _STEP_FIELDS.items():
            values = [getattr(s, attr) for attr in attrs]
            # an unset injection is None, an idle unit or emit is NONE
            if values[0] is not None and values[0] is not _NONE:
                parts.append(f"{key}={','.join(map(_render_value, values))}")
        lines.append(" ".join(parts))
    lines.append("END")
    return "\n".join(lines) + "\n"
