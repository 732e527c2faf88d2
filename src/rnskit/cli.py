"""Command-line surface: gen, compare, convert, and run.

Exit codes: 0 ok, 1 usage or program-parse error or, with no message, a
reader that closed stdout early (`| head`), 2 validation error (including a
value beyond a documented limit), 3 datapath run fault.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .datapath import (
    ProgramParseError,
    RunFault,
    Source,
    UnboundPlaceholderError,
    builtin_function1,
    builtin_function2,
    parse_program,
    run,
)
from .moduli import (
    CardinalityError,
    GenerationRequest,
    ModuliSet,
    RangeTooSmallError,
    SchemeId,
    bit_cost,
    find_moduli,
)
from .numbers import parse_decimal, read_decimal
from .rns import RnsContext, RnsError, to_rns, from_rns, RnsNumber
from .tables import comparison_rows, rows_to_csv, rows_to_markdown

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUN_FAULT = 3

# Input limits: gen/compare --bits, compare's widths times schemes, run's
# function2 exponent E, the length (also gen --count, so every set gen prints is
# accepted back) and dynamic-range width of a --moduli list, and the characters
# of a run --program file; every integer below a range of MAX_RANGE_BITS prints
# within int()'s default 4300-digit limit.
MAX_BITS = 8192
MAX_COMPARE_CELLS = 8192
MAX_EXPONENT = 4096
MAX_MODULI = 64
MAX_RANGE_BITS = 12288
MAX_PROGRAM_CHARS = 65536


class _UsageError(Exception):
    pass


class _LimitError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the interface wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _decimal(text: str, what: str) -> int:
    try:
        return read_decimal(text, what)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _at_most(value: int, limit: int, what: str) -> int:
    if value > limit:
        raise _LimitError(f"{what} {value} is over the limit of {limit}")
    return value


def _items(text: str, what: str) -> list[str]:
    items = [part for part in text.split(",") if part]
    if not items:
        raise _UsageError(f"empty {what} list")
    return items


def _int_list(text: str, what: str) -> list[int]:
    return [_decimal(part, what) for part in _items(text, what)]


def _bindings(parts: list[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for chunk in parts:
        for item in chunk.split(","):
            if not item:
                continue
            name, _, text = item.partition("=")
            value = parse_decimal(text)
            if not name or value is None or value < 0:
                raise _UsageError(f"bad binding {item!r} (expected NAME=UNSIGNED)")
            out[name] = value
    return out


def cmd_gen(args) -> str:
    bits = _at_most(_decimal(args.bits, "bits"), MAX_BITS, "bits")
    count = _at_most(_decimal(args.count, "count"), MAX_MODULI, "count")
    moduli_set, trace = find_moduli(GenerationRequest(bits, count))
    text = (f"moduli: {','.join(str(m) for m in moduli_set.moduli)}\n"
            f"bit_cost: {bit_cost(moduli_set)}\n"
            f"dynamic_range: {moduli_set.dynamic_range}\n")
    if args.trace:
        text += f"x: {trace.x}\ncenter: {moduli_set.moduli[0]}\n"
        for i, ((k, k_root), chosen) in enumerate(zip(trace.extras, moduli_set.moduli[3:]), 1):
            text += f"k[{i}]: {k} root={k_root} chosen={chosen}\n"
    return text


def cmd_compare(args) -> str:
    bits_list = [_at_most(bits, MAX_BITS, "bits") for bits in _int_list(args.bits, "bits")]
    schemes = []
    for label in _items(args.schemes, "schemes"):
        try:
            scheme = SchemeId.parse(label)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        if scheme.family == "proposed" and scheme.cardinality > 6:
            raise _UsageError(f"unknown scheme {label!r}")
        schemes.append(scheme)
    _at_most(len(bits_list) * len(schemes), MAX_COMPARE_CELLS, "compare cells")
    rows = comparison_rows(bits_list, schemes)
    return rows_to_csv(rows) if args.format == "csv" else rows_to_markdown(rows)


def _context(moduli_text: str) -> RnsContext:
    moduli = _int_list(moduli_text, "moduli")
    _at_most(len(moduli), MAX_MODULI, "number of moduli")
    moduli_set = ModuliSet(tuple(moduli))
    _at_most(moduli_set.dynamic_range.bit_length(), MAX_RANGE_BITS, "dynamic range bits")
    return RnsContext(moduli_set)


def _warn_if_wraps(ctx: RnsContext, value: int) -> None:
    if value >= (total := ctx.moduli_set.dynamic_range):
        print(f"warning: value {value} >= dynamic range {total}; reduced modulo the range",
              file=sys.stderr)


def cmd_convert(args) -> str:
    ctx = _context(args.moduli)
    if args.value is not None:
        value = _decimal(args.value, "value")
        _warn_if_wraps(ctx, value)
        number = to_rns(ctx, value)
        return ",".join(str(r) for r in number.residues) + "\n"
    residues = tuple(_int_list(args.residues, "residues"))
    number = RnsNumber(residues, ctx.moduli_set)
    return f"{from_rns(ctx, number)}\n"


def _print_trace(trace) -> None:
    order = (Source.IN1, Source.IN2, Source.ADD, Source.SUB, Source.MUL)
    for i, latches in enumerate(trace):
        cells = []
        for src in order:
            number = latches.get(src)
            if number is None:
                cells.append(f"{src.value}=-")
            else:
                cells.append(f"{src.value}=({','.join(str(r) for r in number.residues)})")
        print(f"step {i}: " + " ".join(cells), file=sys.stderr)


def cmd_run(args) -> str:
    bindings = _bindings(args.bind or [])
    if args.builtin == "function1":
        prog = builtin_function1()
    elif args.builtin == "function2":
        if "E" not in bindings:
            raise _UsageError("function2 needs a binding for E (the exponent)")
        prog = builtin_function2(_at_most(bindings.pop("E"), MAX_EXPONENT, "exponent E"))
    else:
        try:
            # one character past the limit is enough to tell a file is over it
            with open(args.program, encoding="utf-8-sig") as file:
                text = file.read(MAX_PROGRAM_CHARS + 1)
        except UnicodeDecodeError as exc:
            raise _UsageError(f"{args.program}: {exc}") from None
        _at_most(len(text), MAX_PROGRAM_CHARS, f"characters read from {args.program}")
        prog = parse_program(text)
    ctx = _context(args.moduli)
    outputs, trace = run(ctx, prog, bindings)
    for name in dict.fromkeys(name for _, name in prog._placeholders):
        _warn_if_wraps(ctx, bindings[name])
    literals = (v for s in prog.steps for v in (s.inject_a, s.inject_b) if type(v) is int)
    for value in dict.fromkeys(literals):
        _warn_if_wraps(ctx, value)
    if args.trace:
        _print_trace(trace)
    return "".join(f"{value}\n" for value in outputs)


@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="rnskit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate a moduli set")
    p_gen.add_argument("--bits", required=True, help="target range width in bits")
    p_gen.add_argument("--count", required=True, help="number of moduli (>= 3)")
    p_gen.add_argument("--trace", action="store_true", help="print generator intermediates")
    p_gen.set_defaults(func=cmd_gen)

    p_cmp = sub.add_parser("compare", help="tabulate schemes against bit widths")
    p_cmp.add_argument("--bits", required=True, help="comma-separated bit widths")
    p_cmp.add_argument(
        "--schemes",
        required=True,
        help="comma-separated: proposed3..proposed6, sm1, sm2, sm3",
    )
    p_cmp.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_cmp.set_defaults(func=cmd_compare)

    p_conv = sub.add_parser("convert", help="binary <-> residues over a moduli set")
    p_conv.add_argument("--moduli", required=True, help="comma-separated moduli")
    direction = p_conv.add_mutually_exclusive_group(required=True)
    direction.add_argument("--value", help="unsigned integer to convert to residues")
    direction.add_argument("--residues", help="comma-separated residues to convert back")
    p_conv.set_defaults(func=cmd_convert)

    p_run = sub.add_parser("run", help="run a microprogram on the datapath")
    source = p_run.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--builtin", choices=("function1", "function2"), help="function1 or function2"
    )
    source.add_argument("--program", help="path to a program text file")
    p_run.add_argument("--moduli", required=True, help="comma-separated moduli")
    p_run.add_argument(
        "--bind", action="append", help="placeholder bindings, e.g. X=7,Y=5,Z=3"
    )
    p_run.add_argument("--trace", action="store_true", help="print per-step latches to stderr")
    p_run.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        print(args.func(args), end="", flush=True)
    except BrokenPipeError:
        # stdout's reader left early (| head): devnull takes its descriptor for the exit flush
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_USAGE
    except (_UsageError, UnboundPlaceholderError, OSError) as exc:
        print(f"rnskit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProgramParseError as exc:
        for number, message in exc.diagnostics:
            print(f"rnskit: parse error: line {number}: {message}", file=sys.stderr)
        return EXIT_USAGE
    except (CardinalityError, RangeTooSmallError, RnsError, _LimitError) as exc:
        print(f"rnskit: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RunFault as exc:
        print(f"rnskit: run fault: {exc}", file=sys.stderr)
        return EXIT_RUN_FAULT
    return EXIT_OK
