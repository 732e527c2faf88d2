import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnskit.cli import _build_parser, main
from rnskit.moduli import SchemeId
from rnskit.tables import comparison_rows, rows_from_csv, rows_to_csv, rows_to_markdown


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- gen -------------------------------------------------------------------------


def test_gen_table_cell(capsys):
    code, out, _ = invoke(capsys, "gen", "--bits", "32", "--count", "6")
    assert code == 0
    assert "moduli: 42,43,41,47,37,53" in out
    assert "bit_cost: 36" in out


def test_gen_triple(capsys):
    code, out, _ = invoke(capsys, "gen", "--bits", "16", "--count", "3")
    assert code == 0
    assert "moduli: 42,43,41" in out
    assert "bit_cost: 18" in out


def test_gen_trace(capsys):
    code, out, _ = invoke(capsys, "gen", "--bits", "32", "--count", "6", "--trace")
    assert code == 0
    assert "x: 41" in out
    assert "center: 42" in out
    assert "k[1]: 58005 root=39 chosen=47" in out


def test_gen_validation_failure_exits_2(capsys):
    code, _, err = invoke(capsys, "gen", "--bits", "4", "--count", "7")
    assert code == 2
    assert "validation" in err


def test_gen_usage_error_exits_1(capsys):
    code, _, _ = invoke(capsys, "gen", "--bits", "x", "--count", "3")
    assert code == 1


def test_gen_count_below_three_exits_2(capsys):
    code, _, _ = invoke(capsys, "gen", "--bits", "16", "--count", "2")
    assert code == 2


# --- compare ---------------------------------------------------------------------


def test_compare_three_moduli_table(capsys):
    code, out, _ = invoke(
        capsys,
        "compare", "--bits", "6,10,16,24,32", "--schemes", "proposed3,sm1,sm2,sm3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bits,scheme,cardinality,moduli,bit_cost,note"
    assert "6,proposed3,3,6;7;5,9," in lines
    assert "32,sm1,3,2048;2049;2047,35," in lines
    assert "16,sm3,3,257;17;15,18," in lines
    noted = [line for line in lines if "reference cell" in line]
    assert len(noted) == 2  # 24/proposed3 and 32/sm2


def test_compare_cardinality_table(capsys):
    code, out, _ = invoke(
        capsys,
        "compare", "--bits", "16,20,32",
        "--schemes", "proposed3,proposed4,proposed5,proposed6",
    )
    assert code == 0
    lines = out.splitlines()
    assert "16,proposed6,6,8;9;7;11;5;13,22," in lines
    assert "20,proposed5,5,16;17;15;19;23,24," in lines
    noted = [line for line in lines if "reference cell" in line]
    assert len(noted) == 1  # 32/proposed5


def test_compare_csv_roundtrip(capsys):
    code, out, _ = invoke(
        capsys,
        "compare", "--bits", "6,24,32", "--schemes", "proposed3,sm2",
    )
    assert code == 0
    rows = rows_from_csv(out)
    assert rows == comparison_rows(
        [6, 24, 32], [SchemeId.parse("proposed3"), SchemeId.parse("sm2")]
    )
    assert rows_to_csv(rows) == out


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "bits,scheme,moduli,cardinality,bit_cost,note\n",
            "unexpected CSV header ('bits', 'scheme', 'moduli', 'cardinality', 'bit_cost', 'note')",
        ),
        (
            "bits,scheme,cardinality,moduli,bit_cost,note\n16,proposed3,4,42;43;41,18,\n",
            "cardinality 4 does not match '42;43;41'",
        ),
    ],
)
def test_rows_from_csv_rejects_a_bad_header_or_cardinality(text, message):
    with pytest.raises(ValueError) as exc:
        rows_from_csv(text)
    assert str(exc.value) == message


def test_compare_markdown(capsys):
    code, out, _ = invoke(
        capsys,
        "compare", "--bits", "6,16", "--schemes", "proposed3,sm1",
        "--format", "markdown",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("| N | proposed3 | #bits | sm1 | #bits |")
    assert "| 6 | (6,7,5) | 9 | (8,9,7) | 11 |" in out


def test_compare_markdown_footnotes_deviation(capsys):
    _, out, _ = invoke(
        capsys, "compare", "--bits", "24", "--schemes", "proposed3",
        "--format", "markdown",
    )
    assert "[^1]" in out
    assert "reference cell (256,257,255)" in out


def test_compare_unknown_scheme_exits_1(capsys):
    code, _, err = invoke(capsys, "compare", "--bits", "16", "--schemes", "sm9")
    assert code == 1
    assert "sm9" in err


@pytest.mark.parametrize(
    "label,message",
    [
        ("proposed-3", "proposed scheme needs cardinality >= 3, got -3"),
        ("proposed2", "proposed scheme needs cardinality >= 3, got 2"),
        ("proposed7", "unknown scheme 'proposed7'"),
    ],
)
def test_compare_cardinality_out_of_bounds_exits_1(capsys, label, message):
    code, out, err = invoke(capsys, "compare", "--bits", "16", "--schemes", label)
    assert (code, out, err) == (1, "", f"rnskit: error: {message}\n")


def test_compare_empty_bits_exits_1(capsys):
    code, _, _ = invoke(capsys, "compare", "--bits", "", "--schemes", "sm1")
    assert code == 1


def test_compare_is_deterministic(capsys):
    first = invoke(capsys, "compare", "--bits", "6,16", "--schemes", "proposed3,sm1")
    second = invoke(capsys, "compare", "--bits", "6,16", "--schemes", "proposed3,sm1")
    assert first == second


# --- convert ---------------------------------------------------------------------


def test_convert_forward(capsys):
    code, out, _ = invoke(capsys, "convert", "--moduli", "8,9,7", "--value", "36")
    assert code == 0
    assert out.strip() == "4,0,1"


def test_convert_reverse(capsys):
    code, out, _ = invoke(capsys, "convert", "--moduli", "8,9,7", "--residues", "4,0,1")
    assert code == 0
    assert out.strip() == "36"


def test_convert_invalid_set_exits_2(capsys):
    code, _, err = invoke(capsys, "convert", "--moduli", "6,9,5", "--value", "1")
    assert code == 2
    assert "coprime" in err


def test_convert_warns_on_large_value(capsys):
    code, out, err = invoke(capsys, "convert", "--moduli", "8,9,7", "--value", "504")
    assert code == 0
    assert out.strip() == "0,0,0"
    assert "warning" in err


def test_convert_residue_out_of_range_exits_2(capsys):
    code, _, _ = invoke(capsys, "convert", "--moduli", "8,9,7", "--residues", "8,0,0")
    assert code == 2


def test_convert_non_decimal_value_exits_1(capsys):
    code, out, err = invoke(capsys, "convert", "--moduli", "8,9,7", "--value", "abc")
    assert code == 1
    assert out == ""
    assert err.startswith("rnskit: error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("convert", "--moduli", "8,9,7", "--value", "-5"),
        ("convert", "--moduli", "8,-9,7", "--value", "5"),
        ("convert", "--moduli", "8,9,7", "--residues", "4,-1,1"),
        ("gen", "--bits", "-5", "--count", "3"),
    ],
)
def test_negative_numbers_reach_validation_exits_2(capsys, argv):
    code, _, err = invoke(capsys, *argv)
    assert code == 2
    assert "validation" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("convert", "--moduli", "8,9,x", "--value", "5"),
        ("convert", "--moduli", "8,9,7", "--residues", "4,\u00b2,1"),
        ("compare", "--bits", "16,1.5", "--schemes", "sm1"),
        ("gen", "--bits", "16", "--count", "\u0663"),
    ],
)
def test_non_decimal_numbers_exit_1(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("rnskit: error:")


def test_convert_requires_direction(capsys):
    code, _, _ = invoke(capsys, "convert", "--moduli", "8,9,7")
    assert code == 1


# --- run -------------------------------------------------------------------------


def test_run_builtin_function1(capsys):
    code, out, _ = invoke(
        capsys,
        "run", "--builtin", "function1", "--moduli", "8,9,7",
        "--bind", "X=7,Y=5,Z=3",
    )
    assert code == 0
    assert out.strip() == "36"


def test_run_builtin_function2(capsys):
    code, out, _ = invoke(
        capsys,
        "run", "--builtin", "function2", "--moduli", "8,9,7",
        "--bind", "X=3,E=4",
    )
    assert code == 0
    assert out.strip() == "81"


def test_run_unbound_placeholder_exits_1(capsys):
    code, _, err = invoke(
        capsys,
        "run", "--builtin", "function1", "--moduli", "8,9,7",
        "--bind", "X=7,Y=5",
    )
    assert code == 1
    assert "$Z" in err


def test_run_non_ascii_digit_binding_exits_1(capsys):
    code, out, err = invoke(
        capsys,
        "run", "--builtin", "function1", "--moduli", "8,9,7",
        "--bind", "X=\u00b2,Y=1,Z=1",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("rnskit: error:")
    assert "Traceback" not in err


def test_run_negative_binding_exits_1(capsys):
    code, _, err = invoke(
        capsys,
        "run", "--builtin", "function2", "--moduli", "8,9,7", "--bind", "X=3,E=-1",
    )
    assert code == 1
    assert "E=-1" in err


def test_run_program_file(capsys, tmp_path):
    path = tmp_path / "prog.txt"
    path.write_text("PROG double\nSTEP a=$V b=$V add=IN1,IN2 emit=ADD\nEND\n")
    code, out, _ = invoke(
        capsys,
        "run", "--program", str(path), "--moduli", "8,9,7", "--bind", "V=21",
    )
    assert code == 0
    assert out.strip() == "42"


def test_run_parse_error_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("PROG p\nSTEP add=IN1,BAD\nEND\n")
    code, _, err = invoke(
        capsys, "run", "--program", str(path), "--moduli", "8,9,7",
    )
    assert code == 1
    assert "line 2" in err


def test_run_fault_exits_3(capsys, tmp_path):
    path = tmp_path / "fault.txt"
    path.write_text("PROG p\nSTEP emit=MUL\nEND\n")
    code, _, err = invoke(
        capsys, "run", "--program", str(path), "--moduli", "8,9,7",
    )
    assert code == 3
    assert "step 0" in err


def test_run_program_not_utf8_exits_1(capsys, tmp_path):
    path = tmp_path / "binary.bin"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\xc3\x28")
    code, out, err = invoke(
        capsys, "run", "--program", str(path), "--moduli", "8,9,7",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("rnskit: error:")
    assert "Traceback" not in err


def test_run_trace_goes_to_stderr(capsys):
    code, out, err = invoke(
        capsys,
        "run", "--builtin", "function1", "--moduli", "8,9,7",
        "--bind", "X=7,Y=5,Z=3", "--trace",
    )
    assert code == 0
    assert out.strip() == "36"
    assert "step 0:" in err
    assert "IN1=(7,7,0)" in err


def test_run_unknown_builtin_exits_1(capsys):
    code, out, err = invoke(capsys, "run", "--builtin", "bogus", "--moduli", "8,9,7")
    assert (code, out) == (1, "")
    assert "argument --builtin: invalid choice: 'bogus'" in err


def test_run_missing_function2_exponent_exits_1(capsys):
    code, _, err = invoke(
        capsys,
        "run", "--builtin", "function2", "--moduli", "8,9,7", "--bind", "X=3",
    )
    assert code == 1
    assert "E" in err


# --- one parser per process ------------------------------------------------------


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_consecutive_runs_keep_only_their_own_bindings(capsys):
    run = ("run", "--builtin", "function1", "--moduli", "8,9,7")
    assert invoke(capsys, *run, "--bind", "X=7,Y=5", "--bind", "Z=3") == (0, "36\n", "")
    assert invoke(capsys, *run, "--bind", "X=1,Y=2,Z=4") == (0, "12\n", "")
    code, out, err = invoke(capsys, *run, "--bind", "X=1,Y=2")
    assert (code, out) == (1, "")
    assert "Z" in err


def test_compare_format_does_not_carry_over(capsys):
    compare = ("compare", "--bits", "6,16", "--schemes", "proposed3,sm1")
    code, out, _ = invoke(capsys, *compare, "--format", "markdown")
    assert code == 0 and out.startswith("| N |")
    code, out, _ = invoke(capsys, *compare)
    assert code == 0
    assert out.splitlines()[0] == "bits,scheme,cardinality,moduli,bit_cost,note"


def test_bad_flag_then_valid_call(capsys):
    code, _, err = invoke(capsys, "gen", "--bits", "32", "--count", "6", "--nope")
    assert code == 1 and "unrecognized arguments" in err
    code, out, _ = invoke(capsys, "gen", "--bits", "32", "--count", "6")
    assert code == 0
    assert "moduli: 42,43,41,47,37,53" in out


def test_markdown_rows_render():
    rows = comparison_rows([6], [SchemeId.parse("proposed3")])
    text = rows_to_markdown(rows)
    assert "(6,7,5)" in text


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

PRIMES = [p for p in range(2, 320) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("gen", "--bits", "8192", "--count", "3"), 0),
        (("gen", "--bits", "8193", "--count", "3"), 2),
        (("gen", "--bits", "128", "--count", "64"), 0),
        (("gen", "--bits", "128", "--count", "65"), 2),
        (("compare", "--bits", "8192", "--schemes", "sm1"), 0),
        (("compare", "--bits", "16,8193", "--schemes", "sm1"), 2),
        (("run", "--builtin", "function2", "--moduli", "8,9,7", "--bind", "X=3,E=4096"), 0),
        (("run", "--builtin", "function2", "--moduli", "8,9,7", "--bind", "X=3,E=4097"), 2),
        (("convert", "--moduli", ",".join(map(str, PRIMES[:64])), "--value", "5"), 0),
        (("convert", "--moduli", ",".join(map(str, PRIMES[:65])), "--value", "5"), 2),
        (("convert", "--moduli", f"{2**12287 - 1},2", "--value", "5"), 0),
        (("convert", "--moduli", f"{2**12287 + 1},2", "--value", "5"), 2),
    ],
)
def test_limits_at_and_past_the_bound(capsys, argv, expected):
    code, _, err = invoke(capsys, *argv)
    assert code == expected, err
    if expected == 2:
        assert "over the limit" in err


def test_widest_range_prints_every_value(capsys):
    code, out, _ = invoke(
        capsys, "convert", "--moduli", f"{2**12287 - 1},2", "--residues", f"{2**12287 - 2},1",
    )
    assert code == 0
    assert out.strip() == str(2**12288 - 3)


@pytest.mark.parametrize("count", ["3", "64"])
def test_generated_set_at_the_limits_is_accepted_back(capsys, count):
    code, out, _ = invoke(capsys, "gen", "--bits", "8192", "--count", count)
    assert code == 0
    moduli = out.splitlines()[0].removeprefix("moduli: ")
    code, _, err = invoke(capsys, "convert", "--moduli", moduli, "--value", "1")
    assert code == 0, err


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
