import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import friezes
from friezes.cli import main
from friezes.formulas import count_friezes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--field", "2", "--width", "3")
    assert code == 0
    assert "count: 11" in out
    assert out.count("size") == 4


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "enumerate", "--field", "2^2", "--width", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 17
    assert sorted(o["size"] for o in doc["orbits"]) == [1, 1, 5, 10]


def test_enumerate_naive_strategy(capsys):
    code, base, _ = run(
        capsys, "--format", "json", "enumerate", "--field", "3", "--width", "2"
    )
    code, out, _ = run(
        capsys,
        "--format", "json",
        "enumerate", "--field", "3", "--width", "2", "--strategy", "naive",
    )
    assert code == 0 and out == base


def test_enumerate_refuses_fields_whose_codes_have_no_chr(capsys):
    code, out, err = run(
        capsys, "--budget", str(10**13), "enumerate", "--field", "1114117", "--width", "1"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "0x10FFFF" in err


def test_enumerate_bad_descriptor(capsys):
    code, _, err = run(capsys, "enumerate", "--field", "4", "--width", "2")
    assert code == 1
    assert "prime" in err


def test_enumerate_budget_exceeded(capsys):
    code, _, err = run(
        capsys, "--budget", "100", "enumerate", "--field", "3", "--width", "6"
    )
    assert code == 2
    assert "budget" in err.lower()
    # estimates of 10^150000 and more are refused from their exponents or
    # first partial sums, never summed in full or printed
    for width, strategy in ((1000000, "mitm"), (100000, "naive")):
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "enumerate", "--field", "2", "--width", str(width), "--strategy", strategy,
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "budget 100000000" in err and len(err) < 200


def test_a_mitm_request_keeps_the_mitm_charge(capsys):
    # width 3 runs the naive chunks under either strategy, but each request
    # is charged its own strategy's estimate: 4 * 7^3 = 1372 for mitm
    _, base, _ = run(capsys, "enumerate", "--field", "7", "--width", "3")
    argv = ("--budget", "2000", "enumerate", "--field", "7", "--width", "3")
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, base)
    code, out, err = run(capsys, *argv, "--strategy", "naive")
    assert (code, out) == (2, "")
    assert "budget 2000" in err


def test_verify_partitions_honours_the_budget(capsys):
    # the walk at n = 9 would yield 3425 strings; it is refused before it runs
    code, out, err = run(
        capsys,
        "--budget", "1000", "verify", "--field", "2", "--which", "partitions",
        "--max-n", "16",
    )
    assert code == 2
    assert out == ""
    assert "budget" in err.lower()


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FRIEZES_BUDGET", "100")
    code, _, err = run(capsys, "enumerate", "--field", "3", "--width", "6")
    assert code == 2


def test_budget_env_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("FRIEZES_BUDGET", "abc")
    code, out, err = run(capsys, "count", "--field", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "FRIEZES_BUDGET" in err
    assert "Traceback" not in err


def test_budget_env_negative(capsys, monkeypatch):
    monkeypatch.setenv("FRIEZES_BUDGET", "-1")
    code, out, err = run(capsys, "count", "--field", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "FRIEZES_BUDGET" in err


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--workers", "0"], "--workers"),
        (["--workers", "-3"], "--workers"),
        (["--budget", "-1"], "--budget"),
    ],
)
def test_out_of_range_global_flags(capsys, flags, name):
    code, out, err = run(capsys, *flags, "enumerate", "--field", "2", "--width", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and name in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["verify", "--field", "3", "--which", "friezes", "--max-width", "0"], "--max-width"),
        (["verify", "--field", "3", "--max-n", "1"], "--max-n"),
        (["count", "--field", "3", "--max-width", "0"], "--max-width"),
        (["count", "--field", "3", "--kind", "moduli", "--max-n", "-2"], "--max-n"),
        (["partitions", "--max-n", "1"], "--max-n"),
    ],
)
def test_empty_ranges_are_errors(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and name in err


@pytest.mark.parametrize(
    "argv",
    [
        ["print", "--field", "5", "--row", "6,1,1,6,1"],
        ["print", "--field", "5", "--row", "1,5,1"],
        ["map", "--field", "5", "--to", "config", "--row", "1,1,1,5"],
        ["map", "--field", "5", "--to", "frieze", "--points", "0,7,inf"],
        ["print", "--field", "2^2", "--row", "9,1,1,1,1"],
        ["map", "--field", "2^2", "--to", "frieze", "--points", "0,4,1"],
    ],
)
def test_codes_outside_the_field_are_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: code") and "out of range" in err


def test_smallest_ranges_still_run(capsys):
    code, out, _ = run(capsys, "verify", "--field", "2", "--max-width", "1", "--max-n", "2")
    assert code == 0
    assert "w=1" in out and "n=2" in out
    code, out, _ = run(capsys, "--budget", "0", "count", "--field", "2", "--max-width", "1")
    assert code == 0
    assert out.splitlines()[-1] == "1  3"
    code, out, _ = run(capsys, "partitions", "--max-n", "2")
    assert code == 0
    assert out.splitlines() == ["n \\ k: 2..2", " 2  1"]


def test_count_friezes_table(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "count", "--field", "3", "--max-width", "7"
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["count"] for r in doc["friezes"]] == [2, 10, 35, 91, 260, 820, 2501]


def test_count_parses_a_large_extension_field(capsys):
    # the default modulus of GF(2^64) is found by Ben-Or's test, where trial
    # division by every monic polynomial up to degree 32 never finished
    code, out, _ = run(capsys, "count", "--field", "2^64", "--max-width", "1")
    assert code == 0
    assert out.splitlines()[1].split() == ["1", str(count_friezes(2**64, True, 1))]


def test_count_moduli_table(capsys):
    code, out, _ = run(
        capsys,
        "--format", "json", "count", "--field", "2", "--kind", "moduli", "--max-n", "6",
    )
    assert code == 0
    doc = json.loads(out)
    by_n = {r["n"]: r for r in doc["moduli"]}
    assert by_n[6]["configurations"] == 66
    assert by_n[6]["moduli"] == 11
    assert by_n[6]["moduli_plus"] == 11
    assert "plus" not in by_n[5]


def test_verify_all_ok(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--field", "3", "--which", "all", "--max-width", "3", "--max-n", "5",
    )
    assert code == 0
    assert "MISMATCH" not in out


def test_verify_friezes_only(capsys):
    code, out, _ = run(
        capsys, "verify", "--field", "3", "--which", "friezes", "--max-width", "4"
    )
    assert code == 0
    assert "configurations" not in out


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    # force a wrong closed form to exercise the mismatch path
    monkeypatch.setattr(
        "friezes.search.count_friezes", lambda q, char2, w: 999
    )
    code, out, _ = run(
        capsys, "verify", "--field", "2", "--which", "friezes", "--max-width", "2"
    )
    assert code == 3
    assert "MISMATCH" in out


@pytest.mark.parametrize(
    "target, broken",
    [
        ("friezes.formulas.count_moduli", {"moduli"}),
        ("friezes.formulas.count_moduli_plus", {"moduli_plus"}),
        (
            "friezes.formulas.count_signed_configurations",
            {"configurations_plus", "configurations_minus"},
        ),
        ("friezes.formulas.count_configurations", {"configurations", "partitions"}),
        ("friezes.partitions.a_kn_closed_form", {"partitions"}),
    ],
)
def test_verify_mismatch_marks_the_rows_of_a_wrong_closed_form(
    capsys, monkeypatch, target, broken
):
    # Each closed form is off by one.  n stops at 3: from n = 4 on, the signed
    # counts are built from count_configurations and would break too.
    module, name = target.rsplit(".", 1)
    original = getattr(importlib.import_module(module), name)

    def off_by_one(*args):
        value = original(*args)
        if isinstance(value, tuple):  # SignedCounts
            return type(value)(*(c + 1 for c in value))
        return value + 1

    monkeypatch.setattr(target, off_by_one)
    argv = ("verify", "--field", "3", "--max-width", "1", "--max-n", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert {line.split()[0] for line in out.splitlines() if "MISMATCH" in line} == broken
    code, out, _ = run(capsys, "--format", "json", *argv)
    doc = json.loads(out)
    assert code == 3 and doc["ok"] is False
    assert {row["check"] for row in doc["rows"] if not row["match"]} == broken


def test_map_row_to_config(capsys):
    code, out, _ = run(
        capsys, "map", "--field", "2", "--to", "config", "--row", "1,1,1,0,0"
    )
    assert code == 0
    assert "round trip: ok" in out


def test_map_points_to_frieze(capsys):
    code, out, _ = run(
        capsys, "map", "--field", "3", "--to", "frieze", "--points", "0,1,inf"
    )
    assert code == 0
    assert "row: (" in out and "round trip: ok" in out


def test_map_minus_class_fails_cleanly(capsys):
    code, _, err = run(
        capsys, "map", "--field", "3", "--to", "frieze", "--points", "0,1,0,1"
    )
    assert code == 1
    assert "plus class" in err


@pytest.mark.parametrize(
    "points, message",
    [
        ("0,,1", "bad point label ''"),
        ("INF,0,1", "bad point label 'INF'"),
        ("0,1", "needs at least 3 points"),
    ],
)
def test_map_to_frieze_names_bad_points(capsys, points, message):
    code, out, err = run(capsys, "map", "--field", "3", "--to", "frieze", "--points", points)
    assert (code, out) == (1, "")
    assert message in err


POINT_ERR = "error: bad point label '': labels are element codes or inf\n"


@pytest.mark.parametrize(
    "to, flag, value, err",
    [
        ("frieze", "--points", "", POINT_ERR),
        ("frieze", "--points", " ", POINT_ERR),
        ("frieze", "--points", ",", POINT_ERR),
        ("config", "--row", "", "error: bad row '': entries are element codes\n"),
        ("config", "--row", " ", "error: bad row ' ': entries are element codes\n"),
        ("config", "--row", ",", "error: bad row ',': entries are element codes\n"),
    ],
)
def test_map_names_an_empty_value(capsys, to, flag, value, err):
    # an empty value is a bad value, not a missing flag
    assert run(capsys, "map", "--field", "2", "--to", to, flag, value) == (1, "", err)


ROW_ERR = "error: bad row {!r}: entries are element codes\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("print", "--field", "11", "--row", "1_0,1,1"), ROW_ERR.format("1_0,1,1")),
        (("print", "--field", "3", "--row", "\u0661,\u0661,\u0661"),
         ROW_ERR.format("\u0661,\u0661,\u0661")),
        (("print", "--field", "3", "--row", "+1,+1,+1"), ROW_ERR.format("+1,+1,+1")),
        (("print", "--field", "3", "--row=-0,1,1"), ROW_ERR.format("-0,1,1")),
        (("print", "--field", "5", "--row=-1,1,1"), ROW_ERR.format("-1,1,1")),
        (("map", "--field", "11", "--to", "config", "--row", "1_0,1,1"),
         ROW_ERR.format("1_0,1,1")),
        (("map", "--field", "11", "--to", "frieze", "--points", "0,1_0,inf"),
         "error: bad point label '1_0': labels are element codes or inf\n"),
        (("map", "--field", "3", "--to", "frieze", "--points", "0,+1,inf"),
         "error: bad point label '+1': labels are element codes or inf\n"),
    ],
)
def test_codes_are_ascii_decimal_digits(capsys, argv, err):
    # int() would read every one of these rows and labels as codes
    assert run(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize(
    "field, err",
    [
        ("1_1", "error: bad field descriptor '1_1'\n"),
        ("+5", "error: bad field descriptor '+5'\n"),
        ("\u0661\u0661", "error: bad field descriptor '\u0661\u0661'\n"),
        ("2^+2", "error: bad field descriptor '2^+2'\n"),
        ("2^2:1,+1,1", "error: bad modulus in descriptor '2^2:1,+1,1'\n"),
    ],
)
def test_field_descriptors_are_ascii_decimal_digits(capsys, field, err):
    # int() would read 1_1 and the Arabic-Indic digits as 11 and +5 as 5,
    # and count over GF(11), GF(5) and GF(2^2)
    assert run(capsys, "count", "--field", field, "--max-width", "1") == (1, "", err)


def test_field_descriptors_may_carry_surrounding_whitespace(capsys):
    assert run(capsys, "count", "--field", " 2 ^ 2 : 1, 1 ,1 ", "--max-width", "1")[:2] == (
        0, "w  f_w\n1  7\n"
    )


def test_codes_may_carry_surrounding_whitespace(capsys):
    assert run(capsys, "print", "--field", "3", "--row", " 1, 1 ,1")[:2] == (0, "1 1\n 1\n")
    code, out, _ = run(capsys, "map", "--field", "11", "--to", "frieze", "--points", "0, 10 ,inf")
    assert code == 0 and out.startswith("row: (")


@pytest.mark.parametrize("to, err", [("frieze", "--points"), ("config", "--row")])
def test_map_names_a_missing_flag(capsys, to, err):
    assert run(capsys, "map", "--field", "2", "--to", to) == (
        1, "", f"error: --to {to} needs {err}\n"
    )


@pytest.mark.parametrize(
    "points, err",
    [
        ("0,0,1", "error: cyclically consecutive positions 0 and 1 both hold point 0\n"),
        ("1,2,1", "error: cyclically consecutive positions 2 and 0 both hold point 1\n"),
        ("0,inf,inf", "error: cyclically consecutive positions 1 and 2 both hold point inf\n"),
    ],
)
def test_map_to_frieze_names_coinciding_points(capsys, points, err):
    # the message names the point by its label and the two positions holding it
    assert run(capsys, "map", "--field", "3", "--to", "frieze", "--points", points) == (1, "", err)


def test_print_triangle(capsys):
    code, out, _ = run(capsys, "print", "--field", "2", "--row", "1,1,1,0,0")
    assert code == 0
    assert out == "1 1 1 1\n 1 1 1\n  0 0\n   1\n"


def test_print_rejects_non_frieze(capsys):
    code, _, err = run(capsys, "print", "--field", "3", "--row", "1,1,1,1")
    assert code == 1
    assert "not a frieze" in err


def test_partitions_triangle(capsys):
    code, out, _ = run(capsys, "--format", "json", "partitions", "--max-n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["triangle"][-1] == {"n": 6, "counts": [1, 10, 20, 9, 1]}


def test_worker_flag_changes_nothing(capsys):
    _, base, _ = run(
        capsys, "--format", "json", "enumerate", "--field", "3", "--width", "3"
    )
    for workers in ("2", "4"):
        _, out, _ = run(
            capsys,
            "--workers", workers,
            "--format", "json", "enumerate", "--field", "3", "--width", "3",
        )
        assert out == base


def test_json_outputs_are_valid_json(capsys):
    for argv in (
        ["--format", "json", "count", "--field", "5", "--max-width", "4"],
        ["--format", "json", "verify", "--field", "2", "--which", "partitions", "--max-n", "6"],
        ["--format", "json", "map", "--field", "2", "--to", "config", "--row", "1,1,1,0,0"],
        ["--format", "json", "partitions", "--max-n", "5"],
    ):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["print", "--field", "5"],
        ["print", "--field", "5", "--row", "-1,1,1"],
        ["count", "--field", "5", "--max-n", "x"],
        ["bogus"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["print", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_repeated_calls_match_fresh_processes(capsys, monkeypatch):
    # main() reuses one parser per process; no call may see state left by another
    argvs = [
        ["--format", "json", "count", "--field", "3", "--max-width", "3"],
        ["print", "--field", "5", "--row", "1,1,1"],
        ["--format", "json", "count", "--field", "5", "--max-n", "x"],
        ["count", "--field", "3", "--max-width", "3"],
        ["enumerate", "--field", "2", "--width", "3", "--strategy", "naive"],
        ["enumerate", "--field", "2", "--width", "3"],
        # map keys orbits on the spec the enumerate call left in the cache
        ["enumerate", "--field", "2^4", "--width", "1"],
        ["map", "--field", "2^4", "--to", "frieze", "--points", "3,0,inf,7,12"],
        ["enumerate", "--field", "7^2", "--width", "1"],
        ["--format", "json", "map", "--field", "7^2", "--to", "frieze", "--points", "5,48,0,inf,1"],
    ]
    monkeypatch.delenv("FRIEZES_BUDGET", raising=False)
    src = str(Path(friezes.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    codes = []
    for argv in argvs:
        fresh = subprocess.run(
            [sys.executable, "-m", "friezes", *argv], capture_output=True, text=True, env=env
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(fresh.returncode)
    assert codes == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]


def test_reproduce_tables_script_matches_closed_forms(monkeypatch):
    monkeypatch.delenv("FRIEZES_BUDGET", raising=False)
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_tables.py")],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    headers = [line for line in done.stdout.splitlines() if line.startswith("$ friezes ")]
    assert len(headers) == 14
    assert "MISMATCH" not in done.stdout


_FIELDS = ["2", "3", "2^2", "5", "7", "2^3", "3^2", "2^4", "5^2", "7^2"]
_JUNK = {
    "field": ["4", "banana", "", "2^0", "5:1,1", "2^2:1,0,1", "-3", "2^2:1,1,1"],
    "int": ["-1", "x", ""],
    "choice": ["xml", "fast", "moon"],
    "label": ["-1", "60", "x", ""],
}


def _concat(lists):
    return [a for part in lists for a in part]


def _argv_strategy(junk: bool):
    """argvs over every subcommand; with junk, any value may be invalid and
    required flags may be missing or stray tokens present."""

    def values(kind, good):
        return st.sampled_from(good + _JUNK[kind]) if junk else st.sampled_from(good)

    def flag(name, kind, good, required=True):
        pair = values(kind, good).map(lambda v: [name, v])
        return st.one_of(st.just([]), pair) if junk or not required else pair

    def command(name, *parts):
        return st.tuples(*parts).map(lambda ps: [name] + _concat(ps))

    small = [str(i) for i in range(7)]
    codes = st.sampled_from(["0,1,inf", "1,1,1", "1,1,1,0,0", "0,2,inf,1,3"]) | st.lists(
        values("label", ["0", "1", "2", "3", "inf"]), max_size=7
    ).map(",".join)
    commands = [
        command(
            "enumerate",
            flag("--field", "field", _FIELDS),
            flag("--width", "int", ["1", "2"]),
            flag("--strategy", "choice", ["naive", "mitm"], required=False),
        ),
        command(
            "count",
            flag("--field", "field", _FIELDS),
            flag("--kind", "choice", ["friezes", "moduli"], required=False),
            flag("--max-width", "int", small[1:], required=False),
            flag("--max-n", "int", small[2:], required=False),
        ),
        command(  # verify streams C_n, so its fields and n stay small
            "verify",
            flag("--field", "field", _FIELDS[:7]),
            flag("--which", "choice", ["friezes", "moduli", "partitions", "all"], required=False),
            flag("--max-width", "int", ["1", "2"]),
            flag("--max-n", "int", ["2", "3", "4"]),
        ),
        command(
            "map",
            flag("--field", "field", _FIELDS),
            flag("--to", "choice", ["config", "frieze"]),
            codes.map(lambda c: ["--row", c]),
            codes.map(lambda c: ["--points", c]),
        ),
        command("print", flag("--field", "field", _FIELDS), codes.map(lambda c: ["--row", c])),
        command("partitions", flag("--max-n", "int", small[2:], required=False)),
    ]
    if junk:
        commands.append(
            st.lists(st.sampled_from(["bogus", "map", "--field", "2", "-x", "--"]), max_size=3)
        )
    return st.tuples(
        flag("--format", "choice", ["text", "json"], required=False),
        flag("--budget", "int", ["100", "5000", "100000000"], required=False),
        flag("--workers", "int", ["1", "3"], required=False),
        st.one_of(commands),
    ).map(_concat)


_argvs = st.one_of(_argv_strategy(False), _argv_strategy(True))


@settings(deadline=None, max_examples=150)
@given(_argvs)
def test_any_argv_exits_with_a_contract_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("FRIEZES_BUDGET", None)
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
