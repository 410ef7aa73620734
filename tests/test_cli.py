import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import friezes
from friezes.cli import main


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
        ["print", "--field", "5", "--row=-1,1,1"],
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
