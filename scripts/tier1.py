#!/usr/bin/env python3
"""Run the tier-1 suite and check that its one red test is the only failure.

Usage: python scripts/tier1.py [extra pytest arguments]

Runs the tier-1 command of ROADMAP.md (pytest -q
--continue-on-collection-errors, with src on PYTHONPATH) with --junitxml
and exits 0 only when every test passes except RED, which must fail: it
pins the published typo 17696, while the closed form and both search
strategies give 17647 (see README).  Every test that the command collects
without the extra arguments must have run, so arguments that stop the run
early or narrow it (-x, -k, a path) fail the gate.  Otherwise it prints the
offending test IDs, as the suite names them, and the number of tests that
did not run, and exits 1.
"""

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RED = "tests.test_acceptance::test_criterion_01_published_table_q4_w7"
BAD = ("failure", "error", "skipped")


def outcomes(report: Path) -> dict[str, set[str]]:
    """Test ID -> the outcomes of its junit entries ("passed" when an entry
    has no failure, error or skipped child); teardown errors add entries."""
    found: dict[str, set[str]] = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        tags = {child.tag for child in case if child.tag in BAD} or {"passed"}
        found.setdefault(test_id, set()).update(tags)
    return found


def collected(cmd: list[str], env: dict[str, str]) -> set[str]:
    """The test IDs, in junit form, of the node IDs that cmd --collect-only
    lists: tests/test_a.py::C::test_b[x] is tests.test_a.C::test_b[x]."""
    done = subprocess.run(
        [*cmd, "--collect-only"], cwd=ROOT, env=env, capture_output=True, text=True
    )
    ids = set()
    for line in done.stdout.splitlines():
        path, sep, rest = line.partition("::")
        if sep and path.endswith(".py"):
            *classes, name = rest.split("::")
            ids.add(f"{'.'.join([path[:-3].replace('/', '.'), *classes])}::{name}")
    return ids


def main(argv: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    expected = collected(cmd, env)
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        subprocess.run([*cmd, f"--junitxml={report}", *argv], cwd=ROOT, env=env)
        if not report.exists():
            print("tier1: pytest wrote no junit report", file=sys.stderr)
            return 1
        found = outcomes(report)
    offending = [
        f"{test_id} ({', '.join(sorted(tags))})"
        for test_id, tags in sorted(found.items())
        if test_id != RED and tags != {"passed"}
    ]
    if found.get(RED) != {"failure"}:
        offending.append(f"{RED} ({', '.join(sorted(found.get(RED, {'missing'})))}; it must fail)")
    if offending:
        print("tier1: offending tests:", *offending, sep="\n  ", file=sys.stderr)
    not_run = sorted(expected - found.keys())
    if not_run:
        print(
            f"tier1: {len(not_run)} of the {len(expected)} collected tests did not run, "
            f"first {', '.join(not_run[:3])}",
            file=sys.stderr,
        )
    if offending or not_run:
        return 1
    print(f"tier1: {len(found) - 1} passed, and {RED} failed as it must")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
