"""Comparison rows behind the `compare` command, in CSV and markdown form.

Three cells of the published reference tables contradict the generation
rules they illustrate; rows for those cells carry a deviation note that
quotes the reference cell next to the rule-faithful result, so the two
can be compared side by side instead of silently replaced.
"""

from __future__ import annotations

import csv
import io

from ._record import Record
from .moduli import (ModuliSet, SchemeId, baseline, bit_cost, check_bits, find_moduli,
                     GenerationRequest)
from .numbers import read_decimal

__all__ = [
    "ComparisonRow",
    "comparison_rows",
    "rows_to_csv",
    "rows_from_csv",
    "rows_to_markdown",
]

CSV_HEADER = ("bits", "scheme", "cardinality", "moduli", "bit_cost", "note")

# Cells where the published tables disagree with their own stated rules.
# Keyed by (bits, scheme label); the note shows both sides with numbers.
DEVIATION_NOTES: dict[tuple[int, str], str] = {
    (24, "proposed3"): (
        "reference cell (256,257,255)/26 bits covers only 256*257*255 = 16776960, "
        "255 short of 2^24-1 = 16777215; the range condition forces (258,259,257)/27 bits"
    ),
    (32, "proposed5"): (
        "reference cell (86,87,85,89,77)/35 bits skips candidate 83, which meets the "
        "root bound 83 and is coprime to 86, 87, 85; the smallest-admissible rule "
        "gives (86,87,85,83,89)/35 bits, an equal cost"
    ),
    (32, "sm2"): (
        "reference cell (4096,4097,2047)/37 bits is not of the family form "
        "(2^n, 2^n-1, 2^(n-1)-1); the smallest covering member is (4096,4095,2047)/36 bits"
    ),
}


class ComparisonRow(Record):
    """One (bits, scheme) cell: the generated set, its cost, and any note."""

    __slots__ = FIELDS = ("bits", "scheme", "moduli", "bit_cost", "deviation_note")

    def __init__(
        self, bits: int, scheme: SchemeId, moduli: tuple[int, ...], bit_cost: int,
        deviation_note: str | None = None,
    ) -> None:
        self.__setstate__((bits, scheme, moduli, bit_cost, deviation_note))


def comparison_rows(bits_list, schemes) -> list[ComparisonRow]:
    """One row per (bits, scheme), bits-major, in the order given."""
    rows = []
    for bits in bits_list:
        for scheme in schemes:
            if scheme.family == "proposed":
                moduli_set, _ = find_moduli(GenerationRequest(bits, scheme.cardinality))
            else:
                moduli_set = baseline(scheme, bits)
            note = DEVIATION_NOTES.get((bits, scheme.label))
            rows.append(ComparisonRow(bits, scheme, moduli_set.moduli, bit_cost(moduli_set), note))
    return rows


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(
        (row.bits, row.scheme.label, len(row.moduli), ";".join(map(str, row.moduli)),
         row.bit_cost, row.deviation_note or "")
        for row in rows
    )
    return buf.getvalue()


def rows_from_csv(text: str) -> list[ComparisonRow]:
    """Inverse of rows_to_csv for rows that pass its checks, field for field.

    Empty text and a wrong header raise ValueError, as does, named by its
    line, a record with the wrong number of fields, a number that
    parse_decimal rejects, an unknown scheme, bits or a modulus below 2, a
    cardinality that does not count the moduli or is not the scheme's (t
    for proposed<t>, 3 for a baseline), or a bit_cost that is not the sum
    of the moduli's bit lengths.  rows_to_csv checks nothing, so it can
    write a record this rejects.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("empty CSV: missing header")
    header = tuple(header)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for record in reader:
        try:
            if len(record) != len(CSV_HEADER):
                raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(record)}")
            bits, scheme, cardinality, moduli, cost, note = record
            bits = read_decimal(bits, "bits")
            check_bits(bits)
            scheme = SchemeId.parse(scheme)
            parsed = tuple(read_decimal(m, "modulus") for m in moduli.split(";"))
            if min(parsed) < 2:
                raise ValueError(f"modulus {min(parsed)} < 2")
            if len(parsed) != read_decimal(cardinality, "cardinality"):
                raise ValueError(f"cardinality {cardinality} does not match {moduli!r}")
            count = scheme.cardinality or 3  # every baseline family is a triple
            if len(parsed) != count:
                raise ValueError(f"{scheme.label} takes {count} moduli, got {len(parsed)}")
            cost, width = read_decimal(cost, "bit_cost"), bit_cost(ModuliSet(parsed))
            if cost != width:
                raise ValueError(f"bit_cost {cost} is not the moduli's {width}")
        except ValueError as exc:
            raise type(exc)(f"line {reader.line_num}: {exc}") from None
        rows.append(ComparisonRow(bits, scheme, parsed, cost, note or None))
    return rows


def rows_to_markdown(rows) -> str:
    """Bits-per-row, scheme-per-column table, footnoting any deviations."""
    cells = {(row.bits, row.scheme.label): row for row in rows}
    # a key keeps the position of its first row, so both orders are first-seen
    bits_order = dict.fromkeys(bits for bits, _ in cells)
    scheme_order = dict.fromkeys(label for _, label in cells)

    header = ["N"]
    for label in scheme_order:
        header += [label, "#bits"]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    footnotes = []
    for bits in bits_order:
        fields = [str(bits)]
        for label in scheme_order:
            row = cells.get((bits, label))
            if row is None:
                fields += ["-", "-"]
                continue
            mark = ""
            if row.deviation_note:
                footnotes.append(f"[^{len(footnotes) + 1}]: {bits}/{label}: {row.deviation_note}")
                mark = f"[^{len(footnotes)}]"
            fields += ["(" + ",".join(str(m) for m in row.moduli) + ")" + mark, str(row.bit_cost)]
        lines.append("| " + " | ".join(fields) + " |")
    if footnotes:
        lines.append("")
        lines.extend(footnotes)
    return "\n".join(lines) + "\n"
