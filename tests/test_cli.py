import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnskit import cli
from rnskit.cli import MAX_COMPARE_CELLS, MAX_PROGRAM_CHARS, _build_parser, main
from rnskit.moduli import SchemeId
from rnskit.moduli import CardinalityError, RangeTooSmallError
from rnskit.tables import comparison_rows, rows_from_csv, rows_to_csv, rows_to_markdown

SRC = Path(__file__).resolve().parents[1] / "src"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _usage_error(capsys, *argv):
    """(exit, stdout, last stderr line): argparse wraps the usage block above
    that line differently from one interpreter to another."""
    code, out, err = invoke(capsys, *argv)
    return code, out, err.splitlines()[-1]


def _out(*lines):
    return (0, "".join(f"{line}\n" for line in lines), "")


def _error(message):
    return (1, "", f"rnskit: error: {message}\n")


def _invalid(message):
    return (2, "", f"rnskit: validation error: {message}\n")


def _fault(message):
    return (3, "", f"rnskit: run fault: {message}\n")


# --- exit code, stdout and stderr: one row per call ------------------------------

CSV_HEADER = "bits,scheme,cardinality,moduli,bit_cost,note"
NOTE_24_PROPOSED3 = (
    "reference cell (256,257,255)/26 bits covers only 256*257*255 = 16776960, 255 short of "
    "2^24-1 = 16777215; the range condition forces (258,259,257)/27 bits"
)
NOTE_32_SM2 = (
    "reference cell (4096,4097,2047)/37 bits is not of the family form (2^n, 2^n-1, "
    "2^(n-1)-1); the smallest covering member is (4096,4095,2047)/36 bits"
)
NOTE_32_PROPOSED5 = (
    "reference cell (86,87,85,89,77)/35 bits skips candidate 83, which meets the root bound "
    "83 and is coprime to 86, 87, 85; the smallest-admissible rule gives (86,87,85,83,89)/35 "
    "bits, an equal cost"
)
GEN_32_6 = _out("moduli: 42,43,41,47,37,53", "bit_cost: 36", "dynamic_range: 6824597682")
CSV_6_16 = _out(
    CSV_HEADER,
    "6,proposed3,3,6;7;5,9,",
    "6,sm1,3,8;9;7,11,",
    "16,proposed3,3,42;43;41,18,",
    "16,sm1,3,64;65;63,20,",
)
MARKDOWN_6_16 = _out(
    "| N | proposed3 | #bits | sm1 | #bits |",
    "|---|---|---|---|---|",
    "| 6 | (6,7,5) | 9 | (8,9,7) | 11 |",
    "| 16 | (42,43,41) | 18 | (64,65,63) | 20 |",
)
CONVERT = ("convert", "--moduli", "8,9,7")
FUNCTION1 = ("run", "--builtin", "function1", "--moduli", "8,9,7", "--bind")
FUNCTION2 = ("run", "--builtin", "function2", "--moduli", "8,9,7", "--bind")
RUN_PROGRAM = ("run", "--moduli", "8,9,7", "--program")
PRIMES = [p for p in range(2, 320) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize(
    "argv,expected",
    [
        # gen: the set, its cost and its range; a width and count no set meets
        pytest.param(("gen", "--bits", "32", "--count", "6"), GEN_32_6, id="gen-table-cell"),
        pytest.param(
            ("gen", "--bits", "16", "--count", "3"),
            _out("moduli: 42,43,41", "bit_cost: 18", "dynamic_range: 74046"),
            id="gen-triple",
        ),
        pytest.param(
            ("gen", "--bits", "4", "--count", "7"),
            _invalid("bits=4 with cardinality=7 forces modulus 1 < 2"),
            id="gen-forces-a-modulus-below-2",
        ),
        pytest.param(
            ("gen", "--bits", "-5", "--count", "3"),
            _invalid("bits must be >= 2, got -5"),
            id="gen-bits-below-2",
        ),
        pytest.param(
            ("gen", "--bits", "16", "--count", "2"),
            _invalid("cardinality must be >= 3, got 2"),
            id="gen-count-below-3",
        ),
        pytest.param(
            ("gen", "--bits", "x", "--count", "3"),
            _error("bad bits 'x'"),
            id="gen-non-decimal-bits",
        ),
        pytest.param(
            ("gen", "--bits", "16", "--count", "٣"),
            _error("bad count '٣'"),
            id="gen-non-ascii-digit-count",
        ),
        pytest.param(
            ("gen", "--bits", "8193", "--count", "3"),
            _invalid("bits 8193 is over the limit of 8192"),
            id="gen-bits-over-the-limit",
        ),
        pytest.param(
            ("gen", "--bits", "128", "--count", "65"),
            _invalid("count 65 is over the limit of 64"),
            id="gen-count-over-the-limit",
        ),
        # compare: the paper's tables as CSV, with a deviation note in the cells
        # that differ from the published ones, and as markdown with footnotes
        pytest.param(
            ("compare", "--bits", "6,10,16,24,32", "--schemes", "proposed3,sm1,sm2,sm3"),
            _out(
                CSV_HEADER,
                "6,proposed3,3,6;7;5,9,",
                "6,sm1,3,8;9;7,11,",
                "6,sm2,3,8;7;3,9,",
                "6,sm3,3,17;5;3,10,",
                "10,proposed3,3,12;13;11,12,",
                "10,sm1,3,16;17;15,14,",
                "10,sm2,3,16;15;7,12,",
                "10,sm3,3,65;9;7,14,",
                "16,proposed3,3,42;43;41,18,",
                "16,sm1,3,64;65;63,20,",
                "16,sm2,3,64;63;31,18,",
                "16,sm3,3,257;17;15,18,",
                f'24,proposed3,3,258;259;257,27,"{NOTE_24_PROPOSED3}"',
                "24,sm1,3,512;513;511,29,",
                "24,sm2,3,512;511;255,27,",
                "24,sm3,3,4097;65;63,26,",
                "32,proposed3,3,1626;1627;1625,33,",
                "32,sm1,3,2048;2049;2047,35,",
                f'32,sm2,3,4096;4095;2047,36,"{NOTE_32_SM2}"',
                "32,sm3,3,65537;257;255,34,",
            ),
            id="compare-three-moduli-table",
        ),
        pytest.param(
            ("compare", "--bits", "16,20,32", "--schemes",
             "proposed3,proposed4,proposed5,proposed6"),
            _out(
                CSV_HEADER,
                "16,proposed3,3,42;43;41,18,",
                "16,proposed4,4,16;17;15;19,19,",
                "16,proposed5,5,10;11;9;13;7,19,",
                "16,proposed6,6,8;9;7;11;5;13,22,",
                "20,proposed3,3,102;103;101,21,",
                "20,proposed4,4,32;33;31;35,23,",
                "20,proposed5,5,16;17;15;19;23,24,",
                "20,proposed6,6,12;13;11;17;7;19,25,",
                "32,proposed3,3,1626;1627;1625,33,",
                "32,proposed4,4,256;257;255;259,35,",
                f'32,proposed5,5,86;87;85;83;89,35,"{NOTE_32_PROPOSED5}"',
                "32,proposed6,6,42;43;41;47;37;53,36,",
            ),
            id="compare-cardinality-table",
        ),
        pytest.param(
            ("compare", "--bits", "6,16", "--schemes", "proposed3,sm1"), CSV_6_16, id="compare-csv",
        ),
        pytest.param(
            ("compare", "--bits", "6,16", "--schemes", "proposed3,sm1", "--format", "markdown"),
            MARKDOWN_6_16,
            id="compare-markdown",
        ),
        pytest.param(
            ("compare", "--bits", "24", "--schemes", "proposed3", "--format", "markdown"),
            _out(
                "| N | proposed3 | #bits |",
                "|---|---|---|",
                "| 24 | (258,259,257)[^1] | 27 |",
                "",
                f"[^1]: 24/proposed3: {NOTE_24_PROPOSED3}",
            ),
            id="compare-markdown-footnotes-deviation",
        ),
        # widths repeat: one CSV row per (width, scheme) pair, duplicates
        # included, up to the cell limit; markdown shows a pair once
        pytest.param(
            ("compare", "--bits", "16,16", "--schemes", "sm1,sm1"),
            _out(CSV_HEADER, *["16,sm1,3,64;65;63,20,"] * 4),
            id="compare-repeats-a-pair-in-csv",
        ),
        pytest.param(
            ("compare", "--bits", "16,16", "--schemes", "sm1,sm1", "--format", "markdown"),
            _out("| N | sm1 | #bits |", "|---|---|---|", "| 16 | (64,65,63) | 20 |"),
            id="compare-shows-a-pair-once-in-markdown",
        ),
        pytest.param(
            ("compare", "--bits", ",".join(["16"] * MAX_COMPARE_CELLS), "--schemes", "sm1"),
            _out(CSV_HEADER, *["16,sm1,3,64;65;63,20,"] * MAX_COMPARE_CELLS),
            id="compare-at-the-cell-limit",
        ),
        # a width below 2 is a validation error, a bad scheme label a usage error
        pytest.param(
            ("compare", "--bits", "1", "--schemes", "sm1"),
            _invalid("bits must be >= 2, got 1"),
            id="baseline-bits-below-2",
        ),
        pytest.param(
            ("compare", "--bits", "16,8193", "--schemes", "sm1"),
            _invalid("bits 8193 is over the limit of 8192"),
            id="compare-bits-over-the-limit",
        ),
        pytest.param(
            ("compare", "--bits", "16,1.5", "--schemes", "sm1"),
            _error("bad bits '1.5'"),
            id="compare-non-decimal-bits",
        ),
        pytest.param(
            ("compare", "--bits", "16", "--schemes", "proposed-3"),
            _error("cardinality must be >= 3, got -3"),
            id="scheme-cardinality-negative",
        ),
        pytest.param(
            ("compare", "--bits", "16", "--schemes", "proposed2"),
            _error("cardinality must be >= 3, got 2"),
            id="scheme-cardinality-below-3",
        ),
        pytest.param(
            ("compare", "--bits", "16", "--schemes", "proposed7"),
            _error("unknown scheme 'proposed7'"),
            id="scheme-proposed7-unknown",
        ),
        # an empty list item is skipped; a list of nothing but empty items is an error
        pytest.param(
            ("compare", "--bits", "16", "--schemes", "sm1,,sm2"),
            _out(CSV_HEADER, "16,sm1,3,64;65;63,20,", "16,sm2,3,64;63;31,18,"),
            id="empty-scheme-skipped",
        ),
        pytest.param(
            ("compare", "--bits", "16", "--schemes", ","),
            _error("empty schemes list"),
            id="no-scheme",
        ),
        pytest.param(
            ("compare", "--bits", "16", "--schemes", ",,"),
            _error("empty schemes list"),
            id="no-schemes",
        ),
        pytest.param(
            ("compare", "--bits", "16", "--schemes", "sm9"),
            _error("unknown scheme 'sm9'"),
            id="unknown-scheme",
        ),
        pytest.param(
            ("compare", "--bits", "", "--schemes", "sm1"),
            _error("empty bits list"),
            id="empty-bits",
        ),
        pytest.param(
            ("compare", "--bits", "16", "--schemes", "sm9,,"),
            _error("unknown scheme 'sm9'"),
            id="unknown-scheme-before-empty-items",
        ),
        # convert: both directions, a warning when a value wraps, and a number
        # out of range is a validation error wherever it enters, a negative one too
        pytest.param((*CONVERT, "--value", "36"), _out("4,0,1"), id="convert-forward"),
        pytest.param((*CONVERT, "--residues", "4,0,1"), _out("36"), id="convert-reverse"),
        pytest.param(
            (*CONVERT, "--value", "504"),
            (0, "0,0,0\n", "warning: value 504 >= dynamic range 504; reduced modulo the range\n"),
            id="convert-warns-on-large-value",
        ),
        pytest.param(
            ("convert", "--moduli", "6,9,5", "--value", "1"),
            _invalid("moduli 6 and 9 are not coprime (gcd = 3)"),
            id="convert-invalid-set",
        ),
        pytest.param(
            (*CONVERT, "--value", "-5"),
            _invalid("value must be >= 0, got -5"),
            id="value-below-0",
        ),
        pytest.param(
            ("convert", "--moduli", "8,-9,7", "--value", "5"),
            _invalid("modulus -9 < 2"),
            id="negative-modulus",
        ),
        pytest.param(
            (*CONVERT, "--residues", "4,-1,1"),
            _invalid("residue -1 out of range for modulus 9"),
            id="negative-residue",
        ),
        pytest.param(
            (*CONVERT, "--residues", "8,0,0"),
            _invalid("residue 8 out of range for modulus 8"),
            id="residue-out-of-range",
        ),
        # a list that begins with "-" is passed as --flag=value, which argparse
        # never reads as an option
        pytest.param(
            (*CONVERT, "--residues=-5,0,0"),
            _invalid("residue -5 out of range for modulus 8"),
            id="leading-minus-list-after-equals",
        ),
        pytest.param(
            ("convert", "--moduli", "8,9,x", "--value", "5"),
            _error("bad moduli 'x'"),
            id="convert-non-decimal-modulus",
        ),
        pytest.param(
            (*CONVERT, "--residues", "4,²,1"),
            _error("bad residues '²'"),
            id="convert-non-ascii-digit-residue",
        ),
        pytest.param(
            (*CONVERT, "--value", "abc"),
            _error("bad value 'abc'"),
            id="convert-non-decimal-value",
        ),
        pytest.param(
            ("convert", "--moduli", ",".join(map(str, PRIMES[:64])), "--value", "5"),
            _out(",".join(["1", "2", "0"] + ["5"] * 61)),
            id="convert-moduli-at-the-limit",
        ),
        pytest.param(
            ("convert", "--moduli", ",".join(map(str, PRIMES[:65])), "--value", "5"),
            _invalid("number of moduli 65 is over the limit of 64"),
            id="convert-moduli-over-the-limit",
        ),
        pytest.param(
            ("convert", "--moduli", f"{2**12287 - 1},2", "--value", "5"),
            _out("5,1"),
            id="convert-range-at-the-limit",
        ),
        pytest.param(
            ("convert", "--moduli", f"{2**12287 + 1},2", "--value", "5"),
            _invalid("dynamic range bits 12289 is over the limit of 12288"),
            id="convert-range-over-the-limit",
        ),
        pytest.param(
            ("convert", "--moduli", f"{2**12287 - 1},2", "--residues", f"{2**12287 - 2},1"),
            _out(str(2**12288 - 3)),
            id="widest-range-prints-every-digit",
        ),
        # run: the built-ins and a program file, with --trace on stderr
        pytest.param((*FUNCTION1, "X=7,Y=5,Z=3"), _out("36"), id="run-function1"),
        pytest.param((*FUNCTION2, "X=3,E=4"), _out("81"), id="run-function2"),
        pytest.param(
            (*FUNCTION1, "X=7,Y=5,Z=3", "--trace"),
            (
                0,
                "36\n",
                "step 0: IN1=(7,7,0) IN2=(5,5,5) ADD=(4,3,5) SUB=- MUL=-\n"
                "step 1: IN1=(7,7,0) IN2=(3,3,3) ADD=(4,3,5) SUB=- MUL=(4,0,1)\n",
            ),
            id="run-trace-goes-to-stderr",
        ),
        pytest.param(
            (*RUN_PROGRAM, "PROG double\nSTEP a=$V b=$V add=IN1,IN2 emit=ADD\nEND\n",
             "--bind", "V=21"),
            _out("42"),
            id="run-program-file",
        ),
        pytest.param(
            (*FUNCTION1, "X=1,,Y=2", "--bind", ",", "--bind", "Z=3"),
            _out("9"),
            id="empty-bindings-skipped",
        ),
        pytest.param((*FUNCTION2, "X=3,E=4096"), _out("81"), id="run-exponent-at-the-limit"),
        pytest.param(
            (*FUNCTION2, "X=3,E=4097"),
            _invalid("exponent E 4097 is over the limit of 4096"),
            id="run-exponent-over-the-limit",
        ),
        pytest.param(
            (*FUNCTION1, "X=7,Y=5"),
            _error("unbound placeholder $Z"),
            id="run-unbound-placeholder",
        ),
        pytest.param(
            (*FUNCTION2, "X=3"),
            _error("function2 needs a binding for E (the exponent)"),
            id="run-missing-function2-exponent",
        ),
        pytest.param(
            (*FUNCTION1, "X=²,Y=1,Z=1"),
            _error("bad binding 'X=²' (expected NAME=UNSIGNED)"),
            id="run-non-ascii-digit-binding",
        ),
        pytest.param(
            (*FUNCTION2, "X=3,E=-1"),
            _error("bad binding 'E=-1' (expected NAME=UNSIGNED)"),
            id="run-negative-binding",
        ),
        pytest.param(
            (*FUNCTION1, "X7,Y=5,Z=3"),
            _error("bad binding 'X7' (expected NAME=UNSIGNED)"),
            id="run-binding-without-equals",
        ),
        pytest.param(
            (*FUNCTION1, "X=7,=5,Z=3"),
            _error("bad binding '=5' (expected NAME=UNSIGNED)"),
            id="run-binding-without-name",
        ),
        # a run that faults prints no outputs and no --trace lines
        pytest.param(
            (*RUN_PROGRAM, "PROG fault\nSTEP add=ADD,IN1\nEND\n", "--trace"),
            _fault("step 0: read of undefined latch ADD"),
            id="fault-at-step-0",
        ),
        pytest.param(
            (*RUN_PROGRAM, "PROG p\nSTEP a=5 emit=IN1\nSTEP add=ADD,IN1\nEND\n", "--trace"),
            _fault("step 1: read of undefined latch ADD"),
            id="fault-at-step-1",
        ),
        pytest.param(
            (*RUN_PROGRAM, "PROG p\nSTEP emit=MUL\nEND\n"),
            _fault("step 0: read of undefined latch MUL"),
            id="fault-at-emit",
        ),
        # one line-numbered diagnostic per bad line; emit takes one source,
        # so its comma is part of the token
        pytest.param(
            (*RUN_PROGRAM, "PROG bad\nSTEP emit=IN1,IN2\nSTEP add=IN1\nEND\n"),
            (
                1,
                "",
                "rnskit: parse error: line 2: unknown source token 'IN1,IN2'\n"
                "rnskit: parse error: line 3: field 'add' needs exactly two sources\n",
            ),
            id="parse-errors-on-two-lines",
        ),
        pytest.param(
            (*RUN_PROGRAM, "PROG p\nSTEP add=IN1,BAD\nEND\n"),
            (1, "", "rnskit: parse error: line 2: unknown source token 'BAD'\n"),
            id="parse-error-bad-token",
        ),
    ],
)
def test_exit_code_stdout_and_stderr(capsys, tmp_path, argv, expected):
    # the value after --program in a row is the program's text, run from a file
    argv = list(argv)
    if "--program" in argv:
        path = tmp_path / "prog.txt"
        at = argv.index("--program") + 1
        path.write_text(argv[at])
        argv[at] = str(path)
    assert invoke(capsys, *argv) == expected


# --- gen -------------------------------------------------------------------------


GEN_TRACE_OUTPUTS = {
    (32, 6): [
        "moduli: 42,43,41,47,37,53",
        "bit_cost: 36",
        "dynamic_range: 6824597682",
        "x: 41",
        "center: 42",
        "k[1]: 58005 root=39 chosen=47",
        "k[2]: 1235 root=36 chosen=37",
        "k[3]: 34 root=34 chosen=53",
    ],
    (16, 3): [
        "moduli: 42,43,41",
        "bit_cost: 18",
        "dynamic_range: 74046",
        "x: 41",
        "center: 42",
    ],
    (64, 24): [
        "moduli: 8,9,7,11,13,17,19,23,5,29,31,37,41,43,47,53,59,61,67,71,73,79,83,89",
        "bit_cost: 131",
        "dynamic_range: 285224902756146609247806451216299720",
        "x: 7",
        "center: 8",
        "k[1]: 36600682685931651 root=7 chosen=11",
        "k[2]: 3327334789630151 root=6 chosen=13",
        "k[3]: 255948829971551 root=6 chosen=17",
        "k[4]: 15055813527739 root=6 chosen=19",
        "k[5]: 792411238303 root=6 chosen=23",
        "k[6]: 34452662535 root=5 chosen=5",
        "k[7]: 6890532507 root=5 chosen=29",
        "k[8]: 237604570 root=4 chosen=31",
        "k[9]: 7664664 root=4 chosen=37",
        "k[10]: 207154 root=3 chosen=41",
        "k[11]: 5053 root=3 chosen=43",
        "k[12]: 118 root=2 chosen=47",
        "k[13]: 3 root=2 chosen=53",
        "k[14]: 1 root=1 chosen=59",
        "k[15]: 1 root=1 chosen=61",
        "k[16]: 1 root=1 chosen=67",
        "k[17]: 1 root=1 chosen=71",
        "k[18]: 1 root=1 chosen=73",
        "k[19]: 1 root=1 chosen=79",
        "k[20]: 1 root=1 chosen=83",
        "k[21]: 1 root=1 chosen=89",
    ],
}


@pytest.mark.parametrize("bits,count", sorted(GEN_TRACE_OUTPUTS))
def test_gen_trace_full_output(capsys, bits, count):
    code, out, err = invoke(capsys, "gen", "--bits", str(bits), "--count", str(count), "--trace")
    assert code == 0
    assert err == ""
    assert out == "".join(line + "\n" for line in GEN_TRACE_OUTPUTS[bits, count])


# --- compare ---------------------------------------------------------------------


def test_compare_csv_roundtrip(capsys):
    code, out, err = invoke(
        capsys,
        "compare", "--bits", "6,24,32", "--schemes", "proposed3,sm2",
    )
    assert (code, err) == (0, "")
    rows = rows_from_csv(out)
    assert rows == comparison_rows(
        [6, 24, 32], [SchemeId.parse("proposed3"), SchemeId.parse("sm2")]
    )
    assert rows_to_csv(rows) == out


def _csv_error_type(message):
    """The exact type rows_from_csv raises: a check it borrows keeps its own type."""
    if "bits must be >= 2" in message:
        return RangeTooSmallError
    if "cardinality must be >= 3" in message:
        return CardinalityError
    return ValueError


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "bits,scheme,moduli,cardinality,bit_cost,note\n",
            "unexpected CSV header ('bits', 'scheme', 'moduli', 'cardinality', 'bit_cost', 'note')",
        ),
        (
            "bits,scheme,cardinality,moduli,bit_cost,note\n16,proposed3,4,42;43;41,18,\n",
            "line 2: cardinality 4 does not match '42;43;41'",
        ),
    ],
)
def test_rows_from_csv_rejects_a_bad_header_or_cardinality(text, message):
    with pytest.raises(ValueError) as exc:
        rows_from_csv(text)
    assert str(exc.value) == message
    assert type(exc.value) is _csv_error_type(message)


@pytest.mark.parametrize(
    "record,message",
    [
        ("-16,proposed3,3,-42;43;41,-18,", "line 3: bits must be >= 2, got -16"),
        ("16,sm1,4,42;43;41;47,1,", "line 3: sm1 takes 3 moduli, got 4"),
        ("1,proposed3,3,42;43;41,18,", "line 3: bits must be >= 2, got 1"),
        ("16,proposed3,3,42;1;41,13,", "line 3: modulus 1 < 2"),
        ("16,proposed3,3,42;43;0,12,", "line 3: modulus 0 < 2"),
        ("16,proposed4,3,42;43;41,18,", "line 3: proposed4 takes 4 moduli, got 3"),
        ("16,sm3,2,42;43,12,", "line 3: sm3 takes 3 moduli, got 2"),
        ("16,proposed3,3,42;43;41,19,", "line 3: bit_cost 19 is not the moduli's 18"),
        ("16,proposed3,3,42;43;41,0,", "line 3: bit_cost 0 is not the moduli's 18"),
        ("16,proposed2,2,42;43,12,", "line 3: cardinality must be >= 3, got 2"),
    ],
)
def test_rows_from_csv_rejects_a_record_rows_to_csv_cannot_write(record, message):
    good = "16,proposed3,3,42;43;41,18,"
    with pytest.raises(ValueError) as exc:
        rows_from_csv(f"bits,scheme,cardinality,moduli,bit_cost,note\n{good}\n{record}\n")
    assert str(exc.value) == message
    assert type(exc.value) is _csv_error_type(message)


def test_rows_from_csv_accepts_the_smallest_legal_records():
    text = "bits,scheme,cardinality,moduli,bit_cost,note\n2,sm1,3,2;3;5,7,\n2,proposed4,4,2;3;5;7,10,n\n"
    rows = rows_from_csv(text)
    assert [(row.bits, row.scheme.label, row.moduli, row.bit_cost) for row in rows] == [
        (2, "sm1", (2, 3, 5), 7),
        (2, "proposed4", (2, 3, 5, 7), 10),
    ]
    assert rows_to_csv(rows) == text


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty CSV: missing header"),
        (
            "bits,scheme,cardinality,moduli,bit_cost,note\n16,proposed3,3,42;43;41,18,\n16,sm1,3\n",
            "line 3: expected 6 fields, got 3",
        ),
        (
            "bits,scheme,cardinality,moduli,bit_cost,note\n\n16,proposed3,3,42;43;41,18,\n",
            "line 2: expected 6 fields, got 0",
        ),
        (
            "bits,scheme,cardinality,moduli,bit_cost,note\n16,proposed3,3,42;43;41,18,,x\n",
            "line 2: expected 6 fields, got 7",
        ),
    ],
)
def test_rows_from_csv_rejects_empty_text_or_a_record_of_the_wrong_width(text, message):
    with pytest.raises(ValueError) as exc:
        rows_from_csv(text)
    assert str(exc.value) == message
    assert type(exc.value) is _csv_error_type(message)


@pytest.mark.parametrize(
    "record,message",
    [
        ("16,proposed3,x,42;43;41,18,", "line 2: bad cardinality 'x'"),
        ("16,proposed3,3,42;;41,18,", "line 2: bad modulus ''"),
        ("x,proposed3,3,42;43;41,18,", "line 2: bad bits 'x'"),
        ("16,proposed3,3,42;43;41,,", "line 2: bad bit_cost ''"),
        ("16,proposed3,3,+42;43;41,18,", "line 2: bad modulus '+42'"),
        ("16,bogus,3,42;43;41,18,", "line 2: unknown scheme 'bogus'"),
    ],
)
def test_rows_from_csv_names_the_line_and_field_of_a_bad_value(record, message):
    with pytest.raises(ValueError) as exc:
        rows_from_csv(f"bits,scheme,cardinality,moduli,bit_cost,note\n{record}\n")
    assert str(exc.value) == message
    assert type(exc.value) is _csv_error_type(message)


def test_rows_from_csv_names_the_bad_record_s_own_line_after_a_multiline_note():
    good = '16,proposed3,3,42;43;41,18,"a note\non two lines"'
    text = f"bits,scheme,cardinality,moduli,bit_cost,note\n{good}\nx,proposed3,3,42;43;41,18,\n"
    with pytest.raises(ValueError) as exc:
        rows_from_csv(text)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "line 4: bad bits 'x'"


def test_compare_baseline_bit_costs_at_the_least_and_the_most_bits(capsys):
    code, out, err = invoke(capsys, "compare", "--bits", "2,8192", "--schemes", "sm1,sm2,sm3")
    assert (code, err) == (0, "")
    costs = [line.split(",")[4] for line in out.splitlines()[1:]]
    assert costs == ["8", "9", "10", "8195", "8196", "8194"]


# --- convert ---------------------------------------------------------------------


def test_readme_convert_examples_print_their_outputs(capsys):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"^rnskit (convert .*?)\s+# -> (\S+)$", readme, re.M)
    assert len(examples) == 2
    for argv, expected in examples:
        assert invoke(capsys, *argv.split()) == (0, expected + "\n", "")


def _wraps(value):
    return f"warning: value {value} >= dynamic range 504; reduced modulo the range\n"


def test_run_warns_once_per_bound_value_that_wraps(capsys):
    # X is injected as 1000 mod 504 = 496, with convert's warning text
    assert invoke(capsys, *FUNCTION1, "X=1000,Y=0,Z=1") == (0, "496\n", _wraps(1000))
    assert invoke(capsys, *CONVERT, "--value", "1000") == (0, "0,1,6\n", _wraps(1000))
    # each binding the program reads, in step order; W is not read
    expected = (0, "0\n", _wraps(600) + _wraps(504))
    assert invoke(capsys, *FUNCTION1, "W=9999,Z=504,Y=600,X=7") == expected
    # function2 reads X in both converters and warns once; E is no injection
    assert invoke(capsys, *FUNCTION2, "X=505,E=1000") == (0, "1\n", _wraps(505))
    # every binding is below the range: the product wraps in the ring, unwarned
    assert invoke(capsys, *FUNCTION1, "X=500,Y=500,Z=500") == _out("32")


def test_run_warns_once_per_literal_injection_that_wraps(capsys, tmp_path):
    path = tmp_path / "wrap.txt"
    program = (*RUN_PROGRAM, str(path))
    path.write_text("PROG p\nSTEP a=1000 emit=IN1\nEND\n")
    assert invoke(capsys, *program) == (0, "496\n", _wraps(1000))
    # the bindings first, then each distinct literal in step order, a before b;
    # step 1 emits step 0's sum, 1000 + 600 mod 504
    path.write_text("PROG p\nSTEP a=1000 b=$X add=IN1,IN2\nSTEP a=700 b=1000 emit=ADD\nEND\n")
    expected = (0, "88\n", _wraps(600) + _wraps(1000) + _wraps(700))
    assert invoke(capsys, *program, "--bind", "X=600") == expected
    # a literal below the range is injected as is, unwarned
    path.write_text("PROG p\nSTEP a=503 emit=IN1\nEND\n")
    assert invoke(capsys, *program) == (0, "503\n", "")


def test_convert_requires_direction(capsys):
    assert _usage_error(capsys, *CONVERT) == (
        1, "", "rnskit convert: error: one of the arguments --value --residues is required")


# --- run -------------------------------------------------------------------------


def test_run_program_not_utf8_exits_1(capsys, tmp_path):
    path = tmp_path / "binary.bin"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\xc3\x28")
    # stderr names the temporary file, so this call cannot be a row
    assert invoke(capsys, *RUN_PROGRAM, str(path)) == _error(
        f"{path}: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte")


def test_run_program_after_a_utf8_byte_order_mark(capsys, tmp_path):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    text = readme.split("## Program text format\n\n```\n", 1)[1].split("```", 1)[0]
    assert text.startswith("PROG scale-sum\n")
    path = tmp_path / "scale-sum.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    argv = ("run", "--program", str(path), "--moduli", "8,9,7", "--bind", "X=7,Y=5,Z=3")
    assert invoke(capsys, *argv) == (0, "36\n", "")


@pytest.mark.parametrize(
    "builtin,bind,output,steps",
    [
        ("function1", "X=7,Y=5,Z=3", 36, 2),
        ("function2", "X=3,E=4096", 81, 12),
        ("function2", "X=5,E=4095", 125, 22),
        ("function2", "X=5,E=2", 25, 1),
    ],
)
def test_run_builtin_traces_one_line_per_cycle(capsys, builtin, bind, output, steps):
    # function1 takes 2 cycles, function2 floor(log2 E) + popcount(E) - 1, as README states
    argv = ("run", "--builtin", builtin, "--moduli", "8,9,7", "--bind", bind, "--trace")
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (0, f"{output}\n")
    assert [line.split(":")[0] for line in err.splitlines()] == [f"step {i}" for i in range(steps)]


def test_run_unknown_builtin_exits_1(capsys):
    # later patch releases spell the choice list after this text differently
    code, out, last = _usage_error(capsys, "run", "--builtin", "bogus", "--moduli", "8,9,7")
    assert (code, out) == (1, "")
    assert "argument --builtin: invalid choice: 'bogus'" in last


# --- one parser per process ------------------------------------------------------


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_consecutive_runs_keep_only_their_own_bindings(capsys):
    assert invoke(capsys, *FUNCTION1, "X=7,Y=5", "--bind", "Z=3") == _out("36")
    assert invoke(capsys, *FUNCTION1, "X=1,Y=2,Z=4") == _out("12")
    assert invoke(capsys, *FUNCTION1, "X=1,Y=2") == _error("unbound placeholder $Z")


def test_compare_format_does_not_carry_over(capsys):
    compare = ("compare", "--bits", "6,16", "--schemes", "proposed3,sm1")
    assert invoke(capsys, *compare, "--format", "markdown") == MARKDOWN_6_16
    assert invoke(capsys, *compare) == CSV_6_16


def test_bad_flag_then_valid_call(capsys):
    assert _usage_error(capsys, "gen", "--bits", "32", "--count", "6", "--nope") == (
        1, "", "rnskit: error: unrecognized arguments: --nope")
    assert invoke(capsys, "gen", "--bits", "32", "--count", "6") == GEN_32_6


def test_markdown_keeps_first_seen_order_of_bits_and_schemes():
    sm1, proposed3 = SchemeId.parse("sm1"), SchemeId.parse("proposed3")
    rows = comparison_rows([16], [sm1]) + comparison_rows([6], [proposed3, sm1])
    assert rows_to_markdown(iter(rows)).splitlines() == [
        "| N | sm1 | #bits | proposed3 | #bits |",
        "|---|---|---|---|---|",
        "| 16 | (64,65,63) | 20 | - | - |",
        "| 6 | (8,9,7) | 11 | (6,7,5) | 9 |",
    ]


# --- input limits ----------------------------------------------------------------
#
# Each limit is a pair of rows in the table above, at the bound and past it,
# but for these three calls at the bound: their stdout is a moduli set or a
# table of wide sets.


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--bits", "8192", "--count", "3"),
        ("gen", "--bits", "128", "--count", "64"),
        ("compare", "--bits", "8192", "--schemes", "sm1"),
    ],
)
def test_limits_at_the_bound_exit_0_with_no_stderr(capsys, argv):
    code, _, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")


def test_readme_limits_table_matches_the_constants():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| input | limit |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    assert dict(re.findall(r"^\| (.+?) \| ≤ (\d+)", table, re.M)) == {
        "`gen --bits`, each `compare --bits` width": str(cli.MAX_BITS),
        "`compare` cells: widths × schemes, repeats counted": str(cli.MAX_COMPARE_CELLS),
        "`gen --count`": str(cli.MAX_MODULI),
        "`run --builtin function2` exponent `E`": str(cli.MAX_EXPONENT),
        "`--moduli` list length": str(cli.MAX_MODULI),
        "`--moduli` dynamic range": str(cli.MAX_RANGE_BITS),
        "`run --program` file": str(cli.MAX_PROGRAM_CHARS),
    }


def test_compare_over_the_cell_limit_exits_2_before_generating(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("generated rows past the limit")

    monkeypatch.setattr("rnskit.cli.comparison_rows", fail)
    bits = ",".join(["16"] * (MAX_COMPARE_CELLS + 1))
    code, out, err = invoke(capsys, "compare", "--bits", bits, "--schemes", "sm1")
    assert (code, out) == (2, "")
    assert err == (
        f"rnskit: validation error: compare cells {MAX_COMPARE_CELLS + 1} "
        f"is over the limit of {MAX_COMPARE_CELLS}\n"
    )


def _program_of_length(length: int, tail: str = "") -> bytes:
    # a doubling program padded by a comment line to length characters,
    # the last len(tail) of them tail
    head, body = "PROG double\n", "STEP a=$V b=$V add=IN1,IN2 emit=ADD\nEND\n" + tail
    pad = length - len(head) - len(body) - 1
    return (head + "#" * pad + "\n" + body).encode()


def test_program_file_at_the_limit_is_read_in_full(capsys, tmp_path):
    path = tmp_path / "prog.txt"
    path.write_bytes(_program_of_length(MAX_PROGRAM_CHARS))
    assert path.stat().st_size == MAX_PROGRAM_CHARS
    argv = ("run", "--program", str(path), "--moduli", "8,9,7", "--bind", "V=21")
    assert invoke(capsys, *argv) == (0, "42\n", "")


def test_program_file_over_the_limit_exits_2_before_parsing(capsys, tmp_path):
    # the character past the limit would also be a parse error after END
    path = tmp_path / "prog.txt"
    path.write_bytes(_program_of_length(MAX_PROGRAM_CHARS + 1, tail="X"))
    code, out, err = invoke(
        capsys, "run", "--program", str(path), "--moduli", "8,9,7", "--bind", "V=21",
    )
    assert (code, out) == (2, "")
    assert err == (
        f"rnskit: validation error: characters read from {path} "
        f"{MAX_PROGRAM_CHARS + 1} is over the limit of {MAX_PROGRAM_CHARS}\n"
    )


@pytest.mark.parametrize(
    "bits,count,value",
    [
        (8192, 3, 1),
        (8192, 64, 1),
        # 3**1290 (616 digits) over a 2049-bit range split at the remainder
        # tree's root, 3**630 (301 digits) over a 1001-bit range of one leaf
        (2048, 24, 3**1290),
        (1000, 16, 3**630),
    ],
    ids=["8192-bits-3-moduli", "8192-bits-64-moduli", "split-range", "one-leaf-range"],
)
def test_generated_set_is_accepted_back_and_round_trips(capsys, bits, count, value):
    code, out, err = invoke(capsys, "gen", "--bits", str(bits), "--count", str(count))
    assert (code, err) == (0, "")
    moduli = out.splitlines()[0].removeprefix("moduli: ")
    code, residues, err = invoke(capsys, "convert", "--moduli", moduli, "--value", str(value))
    assert (code, err) == (0, "")
    back = ("convert", "--moduli", moduli, "--residues", residues.rstrip("\n"))
    assert invoke(capsys, *back) == (0, f"{value}\n", "")


# --- fuzz ------------------------------------------------------------------------

# the flag shapes argparse accepts per subcommand; gen and run may add --trace
SHAPES = {
    "gen": [["--bits", "--count"]],
    "compare": [["--bits", "--schemes"], ["--bits", "--schemes", "--format"]],
    "convert": [["--moduli", "--value"], ["--moduli", "--residues"]],
    "run": [["--builtin", "--moduli", "--bind"], ["--program", "--moduli", "--bind"]],
    "abc": [[]],
}
VALUES = {
    "--bits": ["3", "16", "32", "6,10,16", "8193", "-5"],
    "--count": ["3", "6", "2", "65"],
    "--schemes": ["proposed3,sm1", "sm2,sm3", "proposed4", "proposed9"],
    "--format": ["csv", "markdown", "xml"],
    "--moduli": ["8,9,7", "42,43,41", "8,-9,7", "2,3"],
    "--value": ["36", "0", "504", "-5"],
    "--residues": ["4,0,1", "8,0,0", "4,0"],
    "--builtin": ["function1", "function2", "function3"],
    "--program": ["<program>", "<fault>", "<binary>", "<missing>"],
    "--bind": ["X=7,Y=5,Z=3", "X=3,E=4", "X=3,E=4097", "X=3", "E=-1"],
}
JUNK = ["", "-", "abc", "\u00b2", "1,,2", "9" * 30, "E=", "=3", "6,9,5", "4,6,9"]


@st.composite
def argvs(draw):
    """A subcommand with one of its flag shapes, a value per flag, and maybe junk.

    Three values in four are plausible for their flag, so most argvs get
    past parsing and reach validation or a run.
    """
    command = draw(st.sampled_from(sorted(SHAPES)))
    argv = [command]
    for flag in draw(st.sampled_from(SHAPES[command])):
        pool = VALUES[flag] if draw(st.integers(0, 3)) else JUNK
        argv += [flag, draw(st.sampled_from(pool))]
    if command in ("gen", "run") and draw(st.booleans()):
        argv.append("--trace")
    if draw(st.integers(0, 3)) == 0:
        argv.append(draw(st.sampled_from(["--help", "--bits", "--value", *JUNK])))
    return argv


@pytest.fixture(scope="module")
def program_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "prog.txt").write_text("PROG p\nSTEP a=$X b=5 mul=IN1,IN2 emit=MUL\nEND\n")
    (root / "fault.txt").write_text("PROG p\nSTEP emit=SUB\nEND\n")
    (root / "binary.bin").write_bytes(b"\x7fELF\xff\xfe\xc3\x28")
    return {
        "<program>": str(root / "prog.txt"),
        "<fault>": str(root / "fault.txt"),
        "<binary>": str(root / "binary.bin"),
        "<missing>": str(root / "missing.txt"),
    }


@given(argv=argvs())
@example(argv=["gen", "--bits", "14300", "--count", "3"])
@example(argv=["gen", "--bits", "4096", "--count", "1000"])
@example(argv=["compare", "--bits", "30000", "--schemes", "sm3"])
@example(argv=["run", "--builtin", "function2", "--moduli", "8,9,7", "--bind", "X=3,E=100000"])
@example(argv=["run", "--program", "<binary>", "--moduli", "8,9,7"])
@settings(max_examples=150, deadline=None)
def test_main_never_raises(program_files, argv):
    argv = [program_files.get(token, token) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# --- python -m rnskit ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["gen", "--bits", "32", "--count", "6"], 0),
        (["run", "--builtin", "function1", "--moduli", "8,9,7", "--bind", "X=7,Y=5"], 1),
        (["convert", "--moduli", "8,9,6", "--value", "3"], 2),
        (["run", "--program", "<reads ADD first>", "--moduli", "8,9,7"], 3),
        (["run", "--builtin", "function1", "--moduli", "8,9,7", "--bind", "X=7,Y=5,Z=3",
          "--trace"], 0),
    ],
    ids=["ok", "usage", "validation", "run-fault", "trace"],
)
def test_module_entry_point_exits_as_main_returns(capsys, tmp_path, argv, expected):
    path = tmp_path / "fault.txt"
    path.write_text("PROG p\nSTEP a=1 add=ADD,IN1 emit=ADD\nEND\n")
    argv = [str(path) if token == "<reads ADD first>" else token for token in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rnskit", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    code, out, err = invoke(capsys, *argv)
    assert proc.returncode == code == expected
    assert (proc.stdout, proc.stderr) == (out, err)
    assert "Traceback" not in proc.stderr


def test_console_script_is_main(capsys):
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    # a regex, not tomllib: the 3.10 floor has no tomllib
    entry = re.search(r'^rnskit = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE)
    assert entry is not None
    target = getattr(importlib.import_module(entry.group(1)), entry.group(2))
    assert target is main
    code = target(["convert", "--moduli", "8,9,6", "--value", "3"])
    assert (code, *capsys.readouterr()) == _invalid("moduli 8 and 6 are not coprime (gcd = 2)")
