"""Workloads of the friezes benchmark: case menus, op runners and output checks.

A workload is a menu of slots.  A run takes one op from every slot (four
from each interactive slot); where a slot has alternatives (catalog text or
JSON, interactive pool entries) the seed picks which.  Every run therefore
does the same mix of work, which keeps throughput and latency percentiles
comparable between seeds.

The library is never imported here: the runner imports it from the
checkout's ``src/`` and the tracer patches its module attributes, so every
call goes through the ``lib`` namespace the runner passes in.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

# Explicit work budget on every op.  It sits far above the work any case
# does, so neither FRIEZES_BUDGET nor a later change that makes budgets count
# real work instead of an estimate can change an op's outcome.
BUDGET = 10**12

WORKLOADS = ("catalog", "search", "moduli", "interactive")

# Alternatives a run takes from each slot of the menu; the seed picks them.
PICKS = {"interactive": 4}

# Every op is kept under about half a second, so that a run repeats each op
# many times and its median time rests on samples spread over the whole run.

# Small fields at large widths: dihedral canonicalization does most of the work.
CATALOG = (
    [("2", w) for w in range(7, 14)]
    + [("3", w) for w in range(4, 9)]
    + [("2^2", w) for w in range(4, 8)]
    + [("5", w) for w in range(3, 7)]
    + [("7", w) for w in range(3, 6)]
    + [("2^3", w) for w in (3, 4)]
    + [("3^2", w) for w in (3, 4)]
    + [("11", w) for w in (3, 4)]
    + [("13", 3)]
)

# Large fields at small widths: the search and gf arithmetic do most of the
# work.  Width 3 is kept to one case because its solutions, and so its
# canonicalization work, grow as fast as its search.  257 lies above
# gf.TABLE_LIMIT, so it runs without op tables.
SEARCH = (
    [(f, 2, "mitm") for f in ("3^4", "7^2", "2^5", "5^2")]
    + [(f, 2, "mitm") for f in ("17", "19", "23", "29", "31", "37", "41", "43", "47", "53")]
    + [("3^3", 3, "mitm"), ("257", 1, "mitm")]
    + [("7", 4, "naive"), ("3^2", 4, "naive"), ("2^3", 4, "naive"), ("5", 5, "naive")]
    + [("11", 3, "naive"), ("13", 3, "naive"), ("2^2", 5, "naive"), ("3", 6, "naive")]
)

# PGL2 orbit keying, configuration streaming and the partition walk.
ORBITS = (
    [("3", n) for n in range(4, 8)]
    + [("2^2", n) for n in range(4, 7)]
    + [("5", n) for n in range(4, 6)]
)
# Their unsigned counts take 0.4 s (q = 7) and 1.6 s (q = 5) on a 2-core
# Intel Xeon under Python 3.11.
SIGNED_ORBITS = [("7", 4), ("5", 6)]
STREAMS = [
    ("3", 8, "all"),
    ("3", 8, "plus"),
    ("3", 9, "all"),
    ("5", 6, "all"),
    ("5", 6, "plus"),
    ("5", 7, "all"),
    ("7", 6, "all"),
]
IDENTITIES = [("3", 6), ("3", 8), ("2^2", 6), ("5", 6)]
WALKS = range(8, 12)


@dataclass(frozen=True)
class Op:
    key: str  # names the exact input; golden digests are keyed by it
    kind: str
    field: str | None
    args: tuple


def _library_slots(workload: str) -> list[list[Op]]:
    if workload == "catalog":
        return [
            [
                Op(f"catalog {f} w{w} {fmt}", "catalog", f, (w, fmt))
                for fmt in ("text", "json")
            ]
            for f, w in CATALOG
        ]
    if workload == "search":
        return [
            [Op(f"search {f} w{w} {s}", "search", f, (w, s))] for f, w, s in SEARCH
        ]
    if workload == "moduli":
        slots = []
        for f, n in ORBITS:
            for sign in ("all", "plus", "minus") if n % 2 == 0 else ("all",):
                slots.append([Op(f"orbits {f} n{n} {sign}", "orbits", f, (n, sign))])
        for f, n in SIGNED_ORBITS:
            for sign in ("plus", "minus"):
                slots.append([Op(f"orbits {f} n{n} {sign}", "orbits", f, (n, sign))])
        slots += [[Op(f"stream {f} n{n} {s}", "stream", f, (n, s))] for f, n, s in STREAMS]
        slots += [[Op(f"identity {f} n{n}", "identity", f, (n,))] for f, n in IDENTITIES]
        slots += [[Op(f"walk n{n}", "walk", None, (n,))] for n in WALKS]
        return slots
    raise ValueError(f"unknown workload {workload!r}")


def _field_of(argv) -> str | None:
    argv = list(argv)
    return argv[argv.index("--field") + 1] if "--field" in argv else None


def slots(workload: str, golden: dict) -> list[list[Op]]:
    """The workload's menu.  Interactive slots come from the recorded pools."""
    if workload != "interactive":
        return _library_slots(workload)
    return [
        [
            Op(f"{template} #{i}", "cli", _field_of(entry["argv"]), tuple(entry["argv"]))
            for i, entry in enumerate(pool)
        ]
        for template, pool in sorted(golden["interactive"].items())
    ]


def fields(menu: list[list[Op]]) -> list[str]:
    return sorted({op.field for slot in menu for op in slot if op.field is not None})


def warmup(menu: list[list[Op]]) -> list[Op]:
    """The first op of each kind, in menu order, run before timing starts."""
    seen, out = set(), []
    for slot in menu:
        op = slot[0]
        if op.kind not in seen:
            seen.add(op.kind)
            out.append(op)
    return out


def draw_run(workload: str, menu: list[list[Op]], rng) -> list[Op]:
    """The distinct ops of one run: the seed's pick from every slot."""
    picks = PICKS.get(workload, 1)
    return [op for slot in menu for op in rng.sample(slot, min(picks, len(slot)))]


def run(lib, specs: dict, op: Op):
    """Execute one op; this is the timed part."""
    spec = specs.get(op.field)
    if op.kind == "catalog":
        w, fmt = op.args
        result = lib.search.enumerate_friezes(
            spec, w, "mitm", lib.search.SearchConfig(budget=BUDGET)
        )
        return result, lib.search.catalog_orbits(result, fmt)
    if op.kind == "search":
        w, strategy = op.args
        return lib.search.enumerate_friezes(
            spec, w, strategy, lib.search.SearchConfig(budget=BUDGET)
        )
    if op.kind == "orbits":
        n, sign = op.args
        return lib.moduli.pgl2_orbit_count(spec, n, sign, budget=BUDGET)
    if op.kind == "stream":
        n, sign = op.args
        return sum(
            1 for _ in lib.moduli.configuration_index_tuples(spec, n, sign, budget=BUDGET)
        )
    if op.kind == "identity":
        return lib.partitions.verify_partition_identity(spec, op.args[0], budget=BUDGET)
    if op.kind == "walk":
        return lib.partitions.cyclic_partition_counts(op.args[0])
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = lib.cli.main(list(op.args))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()
    raise ValueError(f"unknown op kind {op.kind!r}")


def output(lib, op: Op, out) -> tuple[int, str]:
    """Exit code and the text whose SHA-256 is recorded for the op."""
    if op.kind == "catalog":
        return 0, out[1]
    if op.kind == "search":
        return 0, lib.search.catalog_orbits(out, "json")
    if op.kind == "orbits":
        return 0, json.dumps(lib.moduli.orbit_summary_to_json_dict(out))
    if op.kind == "stream":
        return 0, str(out)
    if op.kind == "identity":
        return 0, json.dumps(
            [out.ok, out.configurations, out.identity_rhs, out.per_block_ok]
        )
    if op.kind == "walk":
        return 0, json.dumps(out)
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def closed_form_problem(lib, specs: dict, op: Op, out) -> str | None:
    """What disagrees with the closed forms in the op's output, if anything."""
    f = lib.formulas
    spec = specs.get(op.field)
    if op.kind in ("catalog", "search"):
        result = out[0] if op.kind == "catalog" else out
        expect = f.count_friezes(spec.q, spec.char_is_2, op.args[0])
        if result.total_count != expect:
            return f"count {result.total_count} != closed form {expect}"
        if sum(size for _, size in result.orbits) != result.total_count:
            return "orbit sizes do not sum to the count"
        return None
    if op.kind in ("orbits", "stream"):
        n, sign = op.args
        if sign == "all":
            configs = f.count_configurations(spec.q, n)
        else:
            configs = getattr(f.count_signed_configurations(spec.q, spec.char_is_2, n), sign)
        if op.kind == "stream":
            return None if out == configs else f"streamed {out} != closed form {configs}"
        if sum(out.sizes) != configs:
            return f"orbit sizes sum to {sum(out.sizes)}, closed form {configs}"
        if sign == "all":
            expect = f.count_moduli(spec.q, n)
        elif sign == "plus":
            expect = f.count_moduli_plus(spec.q, spec.char_is_2, n // 2)
        else:
            return None  # no closed form for the minus orbit count
        return None if out.count == expect else f"{out.count} orbits != closed form {expect}"
    if op.kind == "identity":
        configs = f.count_configurations(spec.q, op.args[0])
        if not (out.ok and out.per_block_ok):
            return "partition identity reported a mismatch"
        if out.configurations != configs or out.identity_rhs != configs:
            return f"identity sides {out.configurations}, {out.identity_rhs} != {configs}"
        return None
    if op.kind == "walk":
        n = op.args[0]
        expect = [0, 0] + [lib.partitions.a_kn_closed_form(k, n) for k in range(2, n + 1)]
        return None if list(out) == expect else f"A(k,{n}) walk {out} != closed form"
    if op.kind == "cli" and "enumerate" in op.args:
        code, stdout = out
        if code != 0:
            return None  # the exit code check reports it
        if "json" in op.args:
            count = json.loads(stdout)["count"]
        else:
            count = int(stdout.split("\n", 1)[0].removeprefix("count: "))
        width = int(op.args[op.args.index("--width") + 1])
        expect = f.count_friezes(spec.q, spec.char_is_2, width)
        return None if count == expect else f"count {count} != closed form {expect}"
    return None


def check(lib, specs: dict, op: Op, out, golden: dict) -> str | None:
    """None when the op's output is right, else what is wrong with it."""
    problem = closed_form_problem(lib, specs, op, out)
    if problem:
        return problem
    code, text = output(lib, op, out)
    if op.kind == "cli":
        template, index = op.key.rsplit(" #", 1)
        expect_code = golden["interactive"][template][int(index)]["exit"]
        if code != expect_code:
            return f"exit code {code}, expected {expect_code}"
    if digest(text) != golden["digests"].get(op.key):
        return "output differs from the recorded digest"
    return None
