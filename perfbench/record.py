#!/usr/bin/env python3
"""Record perfbench/golden.json: the interactive input pools and the SHA-256
of every op's output, as the library at the current commit produces them.

    python3 perfbench/record.py

Run it only to add or change cases; re-recording after a library change
would hide exactly the output changes the benchmark exists to catch.
"""

from __future__ import annotations

import json
import random
import sys

import cases
from run import HERE, load_library

POOL_SEED = 190712790
POOL_SIZE = 8
FIELDS = ["2", "3", "2^2", "5", "7", "2^3", "3^2", "11", "2^4", "5^2", "3^3", "7^2", "2^6", "3^4"]
# map --to frieze keys orbits through all q^3 - q elements of PGL2: 0.1 s
# at q = 25, 10 s at q = 64 (2-core Intel Xeon, Python 3.11).
MAP_FRIEZE_MAX_Q = 16
BUDGET_ARGS = ["--budget", str(cases.BUDGET)]


def random_config(rng, q: int, n: int) -> list[int]:
    """Point indices 0..q (q is infinity) with cyclically adjacent points distinct."""
    while True:
        idx = [rng.randrange(q + 1)]
        for _ in range(n - 1):
            idx.append(rng.choice([v for v in range(q + 1) if v != idx[-1]]))
        if idx[-1] != idx[0]:
            return idx


def frieze_row(lib, spec, rng, n: int) -> list[int]:
    """A random frieze row: the image of a random configuration, with a
    random member of its rescaling class for even n."""
    m = lib.moduli
    while True:
        config = m.Configuration.from_indices(spec, random_config(rng, spec.q, n))
        if n % 2 == 0 and m.sign_class(config) != m.SignClass.PLUS:
            continue
        row = m.configuration_to_frieze(config)
        if isinstance(row, m.FirstRowClass):
            row = rng.choice(row.members())
        return list(row.codes)


def other_row(lib, spec, rng, n: int) -> list[int]:
    while True:
        codes = [rng.randrange(spec.q) for _ in range(n)]
        if not lib.frieze.matrix_criterion(lib.frieze.FirstRow.from_codes(spec, codes))[0]:
            return codes


def points(spec, rng, n: int) -> list[str]:
    return ["inf" if i == spec.q else str(i) for i in random_config(rng, spec.q, n)]


def fmt_args(rng) -> list[str]:
    return ["--format", "json"] if rng.random() < 0.5 else []


def joined(values) -> str:
    return ",".join(str(v) for v in values)


def pools(lib) -> dict[str, list[dict]]:
    """Template name -> argv list and expected exit code of each pool entry."""
    rng = random.Random(POOL_SEED)
    out: dict[str, list[dict]] = {}

    def add(template, make, exits):
        entries = []
        for _ in range(POOL_SIZE):
            argv = BUDGET_ARGS + fmt_args(rng) + make()
            entries.append({"argv": argv, "exits": exits})
        out[template] = entries

    for f in FIELDS:
        spec = lib.gf.parse_field_descriptor(f)

        def width_n(spec=spec):
            return rng.randint(4, 13 if spec.q == 2 else 11)

        add(f"print-frieze {f}", lambda spec=spec, f=f: [
            "print", "--field", f, "--row", joined(frieze_row(lib, spec, rng, width_n()))], {0})
        add(f"print-other {f}", lambda spec=spec, f=f: [
            "print", "--field", f, "--row", joined(other_row(lib, spec, rng, width_n()))], {1})
        add(f"map-config-frieze {f}", lambda spec=spec, f=f: [
            "map", "--field", f, "--to", "config", "--row",
            joined(frieze_row(lib, spec, rng, width_n()))], {0})
        add(f"map-config-other {f}", lambda spec=spec, f=f: [
            "map", "--field", f, "--to", "config", "--row",
            joined(other_row(lib, spec, rng, width_n()))], {1})
        if spec.q > MAP_FRIEZE_MAX_Q:
            continue
        # even n outside the plus class has no lift and exits 1
        add(f"map-frieze {f}", lambda spec=spec, f=f: [
            "map", "--field", f, "--to", "frieze", "--points",
            joined(points(spec, rng, rng.randint(3, 10)))], {0, 1})

    add("count-friezes", lambda: [
        "count", "--field", rng.choice(FIELDS), "--max-width", str(rng.randint(4, 24))], {0})
    add("count-moduli", lambda: [
        "count", "--field", rng.choice(FIELDS), "--kind", "moduli",
        "--max-n", str(rng.randint(4, 16))], {0})
    add("partitions", lambda: ["partitions", "--max-n", str(rng.randint(4, 16))], {0})

    def enumerate_args():
        f, top = rng.choice([("2", 6), ("3", 4), ("2^2", 3), ("5", 3), ("7", 2)])
        return ["enumerate", "--field", f, "--width", str(rng.randint(1, top)),
                "--strategy", rng.choice(["mitm", "naive"])]

    add("enumerate", enumerate_args, {0})
    add("verify", lambda: [
        "verify", "--field", rng.choice(["2", "3", "2^2"]),
        "--which", rng.choice(["friezes", "moduli", "partitions", "all"]),
        "--max-width", str(rng.randint(1, 3)), "--max-n", str(rng.randint(2, 5))], {0})
    return out


def main() -> int:
    lib = load_library()
    golden = {"digests": {}, "interactive": pools(lib)}
    for workload in cases.WORKLOADS:
        menu = cases.slots(workload, golden)
        specs = {d: lib.gf.parse_field_descriptor(d) for d in cases.fields(menu)}
        for slot in menu:
            for op in slot:
                out = cases.run(lib, specs, op)
                problem = cases.closed_form_problem(lib, specs, op, out)
                if problem:
                    raise SystemExit(f"{op.key}: {problem}")
                code, text = cases.output(lib, op, out)
                if op.kind == "cli":
                    template, index = op.key.rsplit(" #", 1)
                    entry = golden["interactive"][template][int(index)]
                    if code not in entry.pop("exits"):
                        raise SystemExit(f"{op.key}: unexpected exit code {code}")
                    entry["exit"] = code
                golden["digests"][op.key] = cases.digest(text)
        print(f"{workload}: {sum(len(s) for s in menu)} ops recorded", file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
