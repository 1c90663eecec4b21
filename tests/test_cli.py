import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prationality
from prationality.cli import cli


def _run_module(args, stdout, timeout=300):
    """Run `python -m prationality ARGS` with this checkout's package."""
    env = dict(os.environ)
    src = str(Path(prationality.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "prationality", *args],
        stdout=stdout, stderr=subprocess.PIPE, env=env, text=True,
        timeout=timeout,
    )


def test_check_example_63(capsys):
    rc = cli(
        [
            "check",
            "--poly",
            "3;0;-2;0;1",
            "--unit",
            "-2;-1;1;1",
            "--h",
            "1",
            "--prime",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "inert f = 4" in out
    assert "eps^624" in out
    assert "1 + 5*a + 15*a^3" in out
    assert "(mod 25)" in out
    assert "verdict: 5-rational" in out


def test_check_example_62(capsys):
    rc = cli(
        [
            "check",
            "--poly",
            "27;-4;0;1",
            "--unit",
            "-3280;-3462;-729",
            "--h",
            "3",
            "--prime",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "split completely" in out
    # without aux data the p | h case stays undetermined
    assert "undetermined" in out


EX62_CHECK = ["check", "--poly", "27;-4;0;1", "--unit", "-3280;-3462;-729",
              "--h", "3"]


@pytest.mark.parametrize("command", [EX62_CHECK, ["recurrence"]],
                         ids=["check", "recurrence"])
# the last is the product of the first two primes above 2^32
@pytest.mark.parametrize("prime", ["0", "1", "-5", "77", "143",
                                   str(4294967311 * 4294967357)])
def test_non_prime_prime_is_an_input_error(capsys, command, prime):
    rc = cli([*command, "--prime", prime])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: --prime must be a prime, got {prime}\n"


def test_check_decides_a_prime_above_two_to_the_64(capsys):
    # Miller-Rabin, not trial division, which stopped at 10^14
    p = 2**64 + 13
    assert cli([*EX62_CHECK, "--prime", str(p)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"splitting of {p}: (e=1, f=1), (e=1, f=2)\n")
    assert out.endswith(f"verdict: {p}-rational\n")


@pytest.mark.parametrize("command", [EX62_CHECK, ["recurrence"]],
                         ids=["check", "recurrence"])
def test_prime_past_the_primality_bound_is_an_input_error(capsys, command):
    # the bound itself is a strong pseudoprime to all 13 bases; 2^100 + 277
    # is the first prime above 2^100
    for p in (3317044064679887385961981, 2**100 + 277):
        assert cli([*command, "--prime", str(p)]) == 1
        assert capsys.readouterr().err == (
            "error: --prime must be below 3317044064679887385961981, the "
            f"bound of the deterministic primality test, got {p}\n")


def test_prime_two_is_not_applicable(capsys):
    assert cli([*EX62_CHECK, "--prime", "2"]) == 0
    assert capsys.readouterr().out == (
        "splitting of 2: (e=1, f=1), (e=1, f=2)\n"
        "verdict: not applicable (p = 2 is outside the criterion)\n")
    assert cli(["recurrence", "--prime", "2"]) == 0
    assert "not applicable at 2" in capsys.readouterr().out


@pytest.mark.parametrize("poly, unit", [("27;-4;0;1", "1;0;0"),
                                        ("1;0;0;0;1", "0;1")])
def test_check_refuses_a_root_of_unity(capsys, poly, unit):
    # 1 and alpha on x^4 + 1 (a primitive 8th root of unity), which the
    # record loaders skip
    rc = cli(["check", "--poly", poly, "--unit", unit, "--h", "1",
              "--prime", "5"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: unit is a root of unity\n"


def test_check_refuses_a_unit_that_is_not_integral(capsys):
    # a/(a - 2) has norm 1; it once passed the check, printed the splitting
    # line and then failed inside condition (2)
    rc = cli(["check", "--poly", "27;-4;0;1", "--unit", "27;-4;-2",
              "--unit-den", "27", "--h", "1", "--prime", "5"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: unit is not integral\n"


def test_unknown_flag_exits_one(capsys):
    rc = cli(["check", "--bogus", "1"])
    assert rc == 1


def test_unknown_command_exits_one():
    assert cli(["frobnicate"]) == 1


def test_ggc_cli(capsys):
    rc = cli(["ggc", "--xmax", "100", "--T", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p = 17" in out
    assert "GgcHolds" in out


def test_ggc_threshold_beyond_the_float_range_is_an_input_error(capsys):
    rc = cli(["ggc", "--xmax", "5000", "--T", "1000"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: (log p)^T overflows a float at T = 1000.0\n"


@pytest.mark.parametrize("T", ["inf", "nan"])
def test_ggc_threshold_that_is_not_finite_is_an_input_error(capsys, T):
    rc = cli(["ggc", "--xmax", "5000", "--T", T])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: (log p)^T is not finite at T = {T}\n"


@pytest.mark.parametrize("row, message", [
    ("7,0", "class number must be positive"),
    ("7,-7", "class number must be positive"),
    ("7,1,2", "expected p,h: too many values to unpack (expected 2)"),
], ids=["zero", "negative", "three-fields"])
def test_pure_cubic_h_data_rejects_a_bad_row(tmp_path, capsys, row, message):
    path = tmp_path / "h.csv"
    path.write_text(f"p,h\n5,1\n{row}\n")
    rc = cli(["pure-cubic", "--pmax", "30", "--h-data", str(path)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: line 3: {message}\n"


def test_pure_cubic_cli(capsys):
    rc = cli(["pure-cubic", "--pmin", "5", "--pmax", "23"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p = 7: split-completely, condition2 holds" in out
    assert "p = 5: 1+2, condition2 holds" in out


def test_recurrence_cli(capsys):
    rc = cli(
        [
            "recurrence",
            "--prime",
            "7",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "violation False" in out


@pytest.mark.parametrize("p, splitting, index, value, mod", [
    (5, "1+2", 24, 10, 25),
    (7, "1+2", 48, 35, 49),
    (11, "1+2", 120, 66, 121),
    (13, "1+2", 168, 143, 169),
    (31, "inert", 29790, 620, 961),
    (97, "inert", 912672, 970, 9409),
])
def test_recurrence_cli_output_is_pinned(capsys, p, splitting, index, value,
                                         mod):
    rc = cli(["recurrence", "--prime", str(p)])
    assert rc == 0
    assert capsys.readouterr() == (
        f"x^3-4*x+27: splitting {splitting}, F_{index} = {value} (mod {mod}), "
        "screen nonzero, witness present, violation False\n", "")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_table_csv_output_is_pinned(capsys):
    # md5 6696b4becdcc8a08a3b9360dc3671f96; a speed-up changes no cell
    rc = cli(["table", "--pmin", "5", "--pmax", "1000", "--format", "csv"])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert _sha256(out) == (
        "c11fe414f1f41ae75641d8c2c1730826d850ea585abfe79d8179c17382e8bff7")


def test_pure_cubic_output_is_pinned(capsys):
    # 428 primes and the summary line
    rc = cli(["pure-cubic", "--pmin", "5", "--pmax", "3000"])
    out, err = capsys.readouterr()
    assert (rc, err, out.count("\n")) == (0, "", 429)
    assert _sha256(out) == (
        "1e9bd71587557c20532c2ec962df090bb70143b7f893641eeb61cb59c8ff75e3")


def test_recurrence_output_over_the_bundled_records_is_pinned(capsys):
    # 252 lines, 22 of them refusals, from every bundled cubic
    data = Path(prationality.__file__).parent / "data"
    out = []
    for name in ("table1", "table2", "examples"):
        for p in (5, 7, 11, 13, 31, 97, 101):
            rc = cli(["recurrence", "--input", str(data / f"{name}.csv"),
                      "--prime", str(p)])
            text, err = capsys.readouterr()
            assert (rc, err) == (0, "")
            out.append(text)
    text = "".join(out)
    assert (text.count("\n"), text.count("not applicable")) == (252, 22)
    assert _sha256(text) == (
        "e3901865608bff6a2266a53148ed090fb6fade6d13cba154c105b3500da998d0")


def test_scan_cli(tmp_path, capsys):
    csv_text = (
        "label,degree,poly,h,unit,unit_den,torsion_order\n"
        "x^4-2*x^2+3,4,3;0;-2;0;1,1,-2;-1;1;1,1,2\n"
    )
    path = tmp_path / "rec.csv"
    path.write_text(csv_text)
    rc = cli(["scan", "--input", str(path), "--xmax", "50"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p-rational primes <= 50" in out


def test_table_cli_with_input(tmp_path, capsys):
    csv_text = (
        "label,degree,poly,h,unit,unit_den,torsion_order\n"
        "x^4-2*x^2+3,4,3;0;-2;0;1,1,-2;-1;1;1,1,2\n"
    )
    path = tmp_path / "rec.csv"
    path.write_text(csv_text)
    rc = cli(
        ["table", "--input", str(path), "--pmin", "5", "--pmax", "30", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("label,p,cell")


def test_table_with_error_cells_exits_one(tmp_path, capsys):
    # p = 5 may divide the index of Z[a] here, so that cell is an error;
    # the table is still written in full
    path = tmp_path / "rec.csv"
    path.write_text("label,degree,poly,h,unit,unit_den,torsion_order\n"
                    "bad,3,-1;5;2;1,1,0;1,1,2\n")
    rc = cli(["table", "--input", str(path), "--pmin", "5", "--pmax", "11",
              "--format", "csv"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ("label,p,cell\nbad,5,error\nbad,7,pRational\n"
                            "bad,11,pRational\n")
    assert captured.err.endswith("1 error cells\n")


@pytest.mark.parametrize("h, prime", [("0", "5"), ("-5", "5"), ("0", "2")])
def test_nonpositive_class_number_is_an_input_error(h, prime):
    # h = 0 once hung in condition (1)'s loop dividing h by p; it is refused
    # before any output, also where the guard would decide the verdict
    proc = _run_module(["check", "--poly", "3;0;-2;0;1", "--unit", "-2;-1;1;1",
                        "--h", h, "--prime", prime], subprocess.PIPE, timeout=5)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: class number must be positive\n"


def test_table_record_with_class_number_zero_is_an_input_error(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("label,degree,poly,h,unit,unit_den,torsion_order\n"
                    "x^4-2*x^2+3,4,3;0;-2;0;1,0,-2;-1;1;1,1,2\n")
    proc = _run_module(["table", "--input", str(path), "--pmin", "5",
                        "--pmax", "30"], subprocess.PIPE, timeout=5)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: line 2: class number must be positive\n"


def test_scan_record_with_aux_q_zero_is_an_input_error(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("label,degree,poly,h,unit,unit_den,torsion_order,basis,"
                    "aux_q,aux_gen_poly,aux_power_gen\n"
                    "x^3-4*x+27,3,27;-4;0;1,3,-3280;-3462;-729,1,2,,0,1;1,"
                    "-604;265;-77\n")
    proc = _run_module(["scan", "--input", str(path), "--xmax", "50"],
                       subprocess.PIPE, timeout=5)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: line 2: auxiliary ideal prime 0 is less than 2\n"


def test_table_record_with_a_two_row_basis_is_an_input_error(tmp_path, capsys):
    # once an IndexError traceback from the loader
    path = tmp_path / "rec.csv"
    path.write_text("label,degree,poly,h,unit,basis\n"
                    'x^3-x^2+x-9,3,-9;1;-1;1,1,193;63;49,"1,0,0;0,1,0"\n')
    rc = cli(["table", "--input", str(path), "--pmin", "5", "--pmax", "13"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err == "error: line 2: basis must have 3 rows of 3 entries\n"


def test_quintic_is_an_input_error(capsys):
    # (x^2+1)(x^3+x+1) was once accepted as a field of signature (1, 2)
    rc = cli(["check", "--poly", "1;1;1;2;0;1", "--unit", "0;1", "--h", "1",
              "--prime", "7"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: defining polynomial must have degree <= 4\n"


def test_missing_input_file_exits_one(capsys):
    assert cli(["scan", "--input", "/nonexistent.csv", "--xmax", "20"]) == 1


def test_python_m_runs_the_cli():
    proc = _run_module(["ggc", "--xmax", "100", "--T", "1"], subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert "p = 17: " in proc.stdout


def test_closed_stdout_is_not_an_error():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has already exited
    try:
        proc = _run_module(["table", "--pmin", "5", "--pmax", "7"], write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""
