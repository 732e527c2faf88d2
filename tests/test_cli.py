import pytest

from rnskit.cli import main
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


def test_run_missing_function2_exponent_exits_1(capsys):
    code, _, err = invoke(
        capsys,
        "run", "--builtin", "function2", "--moduli", "8,9,7", "--bind", "X=3",
    )
    assert code == 1
    assert "E" in err


def test_markdown_rows_render():
    rows = comparison_rows([6], [SchemeId.parse("proposed3")])
    text = rows_to_markdown(rows)
    assert "(6,7,5)" in text
