"""The benchmark's tracer wraps library names from outside the library; a name
that disappears drops its per-layer metrics from every traced run.  The
wrappers are installed in a child process so they never patch this one."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
sys.dont_write_bytecode = True
sys.path[:0] = sys.argv[1:]
import run, spans
tracer = spans.Tracer()
spans.install(tracer, run.load_library())
print(json.dumps({"missing": sorted(tracer.missing), "per_layer": sorted(spans.PER_LAYER)}))
"""


def test_tracer_finds_every_name_it_wraps():
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["missing"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(report["per_layer"]) | {"trace.overhead_ratio"} == {m["name"] for m in declared}
