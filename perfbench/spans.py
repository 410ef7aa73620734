"""Spans around calls into the library, recorded from outside it.

The tracer replaces module attributes with timing wrappers, at the names
callers look them up by: modules import functions by name, so
``search.dihedral_orbit_codes`` and ``frieze.dihedral_orbit_codes`` are two
separate lookups.  No library file changes.  A wrapped name that no longer
exists is reported as missing, and every metric that needs it is left out.

Spans have a name, start, end, duration, parent and op id, and are kept in
flat arrays in memory until the run ends.  A span's duration is end - start,
except for streaming spans (generators), whose duration is the time spent
inside the generator only.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from time import perf_counter

SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.dur = array("d")
        self.stack: list[int] = []
        self.current_op: int | None = None  # spans are recorded only inside an op
        self.counts: Counter = Counter()
        self.missing: set[str] = set()

    # -- recording ---------------------------------------------------------

    def count(self, key: str, value=1):
        self.counts[key] += value

    def open(self, name: str) -> int:
        i = len(self.dur)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.dur.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int):
        t = perf_counter()
        self.stack.pop()
        self.end[i] = t
        self.dur[i] = t - self.start[i]

    def _stream(self, i: int, it, done):
        dur, n, t1 = 0.0, 0, self.start[i]
        try:
            while True:
                self.stack.append(i)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    break
                finally:
                    t1 = perf_counter()
                    self.stack.pop()
                    dur += t1 - t0
                n += 1
                yield item
        finally:
            self.end[i], self.dur[i] = t1, dur
            done(n)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None,
             counted_after=None, stream=None):
        """Time calls made through ``owner.attr`` as spans called ``name``.

        before(args, kwargs) runs ahead of the span and its result is passed
        to after(args, kwargs, result, state), which runs once the span has
        closed.  counted_after is the same, run inside a ``trace.counters``
        span so that its own cost is charged to no layer.  stream(args,
        kwargs) marks a generator function: it runs ahead of the span and
        returns a callback that receives the number of items yielded.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        is_classmethod = isinstance(raw, classmethod)
        orig = raw.__func__ if is_classmethod else getattr(owner, attr, None)
        if orig is None:
            self.missing.add(name)
            return
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if tracer.current_op is None:
                return orig(*args, **kwargs)
            state = before(args, kwargs) if before else None
            if stream:
                done = stream(args, kwargs)
                i = tracer.open(name)
                tracer.stack.pop()  # a stream is entered on each next(), not here
                return tracer._stream(i, orig(*args, **kwargs), done)
            i = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(i)
            if after:
                after(args, kwargs, result, state)
            if counted_after:
                j = tracer.open("trace.counters")
                try:
                    counted_after(args, kwargs, result, state)
                finally:
                    tracer.close(j)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    # -- output ------------------------------------------------------------

    def write(self, path, op_keys: list[str]):
        """Spans as gzip'd CSV, one line per span; op -1 is the set-up."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,parent,op,key,start,end,dur\n")
            names = self.names
            for i in range(len(self.dur)):
                op = self.op[i]
                key = op_keys[op] if op >= 0 else "setup"
                fh.write(
                    f"{i},{names[self.name[i]]},{self.parent[i]},{op},{key},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f},{self.dur[i]:.9f}\n"
                )


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def install(tracer: Tracer, lib):
    """Wrap every layer boundary the benchmark reports on."""
    t = tracer
    gf, frieze, search, moduli = lib.gf, lib.frieze, lib.search, lib.moduli
    partitions, formulas, cli = lib.partitions, lib.formulas, lib.cli

    # gf
    t.wrap(gf.FieldSpec, "__init__", "gf.field_build")
    t.wrap(
        moduli, "pgl2_point_permutations", "gf.pgl2_perms",
        before=lambda a, k: getattr(a[0], "_p1_perms", None) is not None,
        after=lambda a, k, r, hit: t.count("gf.pgl2_perms_cache_hits", int(hit)),
    )

    # search
    def orbits_found(a, k, result, _):
        t.count("search.orbits", len(result.orbits))

    def table_sizes(a, k, table, _):
        t.count("search.right_table_entries", sum(len(b) for b in table.values()))
        t.count("search.right_table_buckets", len(table))

    def left_hits(a, k, out, _):
        spec, nl = _arg(a, k, 0, "spec"), _arg(a, k, 1, "nl")
        t.count("search.lookup_hits", len({row[:nl] for row in out}))
        t.count("search.left_leaves", spec.q ** (nl - 1))

    def naive_yield(a, k, out, _):
        spec, n = _arg(a, k, 0, "spec"), _arg(a, k, 1, "n")
        t.count("search.naive_solutions", len(out))
        t.count("search.naive_leaves", spec.q ** (n - 2))

    t.wrap(search, "enumerate_friezes", "search.enumerate", after=orbits_found)
    t.wrap(search, "_mitm_table", "search.right_table", counted_after=table_sizes)
    t.wrap(search, "_mitm_chunk", "search.left_scan", counted_after=left_hits)
    t.wrap(search, "_naive_chunk", "search.naive_scan", counted_after=naive_yield)
    t.wrap(search, "catalog_orbits", "search.render")
    t.wrap(search, "enumeration_to_json_dict", "search.render")

    # frieze
    t.wrap(
        search, "dihedral_orbit_codes", "frieze.canon",
        after=lambda a, k, r, _: t.count("frieze.canon_images", len(r)),
    )
    t.wrap(
        cli, "frieze_from_first_row", "frieze.build",
        after=lambda a, k, r, _: t.count(
            "frieze.rejected_rows", int(type(r).__name__ == "NotAFrieze")
        ),
    )
    t.wrap(cli, "check_tame", "frieze.tame")
    t.wrap(cli, "render_frieze", "frieze.render")
    t.wrap(frieze.FirstRow, "from_codes", "frieze.parse")
    t.wrap(frieze, "matrix_criterion", "frieze.criterion")
    t.wrap(moduli, "matrix_criterion", "frieze.criterion")

    # moduli
    def stream(a, k):
        spec, n = _arg(a, k, 0, "spec"), _arg(a, k, 1, "n")
        sign = k.get("sign_filter", a[2] if len(a) > 2 else "all")

        def done(items):
            t.count("moduli.configs_streamed", items)
            if sign != "all":
                t.count("moduli.signed_yield", items)
                t.count("moduli.signed_candidates", spec.q**n + (-1) ** n * spec.q)

        return done

    def orbit_keys(a, k, summary, _):
        q = summary.spec.q
        t.count("moduli.key_images", sum(summary.sizes) * (q**3 - q))
        t.count("moduli.orbits_found", summary.count)

    t.wrap(moduli, "configuration_index_tuples", "moduli.stream", stream=stream)
    t.wrap(partitions, "configuration_index_tuples", "moduli.stream", stream=stream)
    t.wrap(moduli, "pgl2_orbit_count", "moduli.orbit_count", after=orbit_keys)
    t.wrap(moduli, "frieze_to_configuration", "moduli.correspondence")
    t.wrap(moduli, "configuration_to_frieze", "moduli.correspondence")
    t.wrap(moduli, "orbit_of", "moduli.orbit_of")

    # partitions
    t.wrap(
        partitions, "cyclic_partition_counts", "partitions.walk",
        after=lambda a, k, r, _: t.count("partitions.walk_strings", sum(r)),
    )
    t.wrap(partitions, "verify_partition_identity", "partitions.identity")
    t.wrap(partitions, "partition_identity_rhs", "partitions.identity")
    t.wrap(partitions, "a_kn_closed_form", "partitions.closed_form")

    # formulas, at every module that looks them up
    for fn in (
        "count_friezes",
        "count_configurations",
        "count_moduli",
        "count_signed_configurations",
        "count_moduli_plus",
    ):
        t.wrap(formulas, fn, "formulas.closed_form")
    t.wrap(search, "count_friezes", "formulas.closed_form")
    t.wrap(partitions, "count_configurations", "formulas.closed_form")

    # cli
    t.wrap(
        cli, "main", "cli.main",
        after=lambda a, k, code, _: t.count(f"cli.exit_code_counts.{code}"),
    )


def _child_durations(tracer: Tracer) -> array:
    """Per span, the summed duration of its direct children."""
    child = array("d", bytes(8 * len(tracer.dur)))
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += tracer.dur[i]
    return child


def _aggregate(tracer: Tracer) -> Counter:
    """Totals, self times and call counts by span name, plus the counters.
    A span nested in a span of the same name adds to self time and calls but
    not to the total, so totals never double count."""
    agg = Counter()
    names, name, parent, dur = tracer.names, tracer.name, tracer.parent, tracer.dur
    child = _child_durations(tracer)
    for i in range(len(dur)):
        nid = name[i]
        label = names[nid]
        agg["calls", label] += 1
        agg["self", label] += dur[i] - child[i]
        p = parent[i]
        while p >= 0 and name[p] != nid:
            p = parent[p]
        if p < 0:
            agg["total", label] += dur[i]
    for key, value in tracer.counts.items():
        agg["count", key] += value
    return agg


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, wrapped span names it needs, value from the aggregate)
PER_LAYER = {
    "gf.field_build_s": ("s", ["gf.field_build"], lambda a: a["total", "gf.field_build"]),
    "gf.field_build_calls": ("count", ["gf.field_build"], lambda a: a["calls", "gf.field_build"]),
    "gf.pgl2_perms_s": ("s", ["gf.pgl2_perms"], lambda a: a["total", "gf.pgl2_perms"]),
    "gf.pgl2_perms_cache_hits": ("count", ["gf.pgl2_perms"], lambda a: a["count", "gf.pgl2_perms_cache_hits"]),
    "search.right_table_s": ("s", ["search.right_table"], lambda a: a["total", "search.right_table"]),
    "search.right_table_entries": ("count", ["search.right_table"], lambda a: a["count", "search.right_table_entries"]),
    "search.right_table_buckets": ("count", ["search.right_table"], lambda a: a["count", "search.right_table_buckets"]),
    "search.left_scan_s": ("s", ["search.left_scan"], lambda a: a["total", "search.left_scan"]),
    "search.lookup_hits": ("count", ["search.left_scan"], lambda a: a["count", "search.lookup_hits"]),
    "search.hit_ratio": ("ratio", ["search.left_scan"], lambda a: _ratio(a["count", "search.lookup_hits"], a["count", "search.left_leaves"])),
    "search.naive_scan_s": ("s", ["search.naive_scan"], lambda a: a["total", "search.naive_scan"]),
    "search.naive_yield": ("ratio", ["search.naive_scan"], lambda a: _ratio(a["count", "search.naive_solutions"], a["count", "search.naive_leaves"])),
    "search.self_s": ("s", ["search.enumerate"], lambda a: a["self", "search.enumerate"]),
    "search.render_s": ("s", ["search.render"], lambda a: a["total", "search.render"]),
    "frieze.canon_s": ("s", ["frieze.canon"], lambda a: a["total", "frieze.canon"]),
    "frieze.canon_calls": ("count", ["frieze.canon"], lambda a: a["calls", "frieze.canon"]),
    "frieze.canon_images": ("count", ["frieze.canon"], lambda a: a["count", "frieze.canon_images"]),
    "frieze.canon_calls_per_orbit": ("ratio", ["frieze.canon", "search.enumerate"], lambda a: _ratio(a["calls", "frieze.canon"], a["count", "search.orbits"])),
    "frieze.build_s": ("s", ["frieze.build"], lambda a: a["total", "frieze.build"]),
    "frieze.rejected_rows": ("count", ["frieze.build"], lambda a: a["count", "frieze.rejected_rows"]),
    "frieze.tame_s": ("s", ["frieze.tame"], lambda a: a["total", "frieze.tame"]),
    "frieze.render_s": ("s", ["frieze.render"], lambda a: a["total", "frieze.render"]),
    "frieze.parse_s": ("s", ["frieze.parse"], lambda a: a["total", "frieze.parse"]),
    "frieze.criterion_s": ("s", ["frieze.criterion"], lambda a: a["total", "frieze.criterion"]),
    "moduli.stream_s": ("s", ["moduli.stream"], lambda a: a["total", "moduli.stream"]),
    "moduli.configs_streamed": ("count", ["moduli.stream"], lambda a: a["count", "moduli.configs_streamed"]),
    "moduli.sign_pass_ratio": ("ratio", ["moduli.stream"], lambda a: _ratio(a["count", "moduli.signed_yield"], a["count", "moduli.signed_candidates"])),
    "moduli.orbit_key_s": ("s", ["moduli.orbit_count"], lambda a: a["self", "moduli.orbit_count"]),
    "moduli.key_images": ("count", ["moduli.orbit_count"], lambda a: a["count", "moduli.key_images"]),
    "moduli.orbits_found": ("count", ["moduli.orbit_count"], lambda a: a["count", "moduli.orbits_found"]),
    "moduli.correspondence_s": ("s", ["moduli.correspondence"], lambda a: a["total", "moduli.correspondence"]),
    "moduli.orbit_of_s": ("s", ["moduli.orbit_of"], lambda a: a["total", "moduli.orbit_of"]),
    "partitions.walk_s": ("s", ["partitions.walk"], lambda a: a["total", "partitions.walk"]),
    "partitions.walk_strings": ("count", ["partitions.walk"], lambda a: a["count", "partitions.walk_strings"]),
    "partitions.identity_s": ("s", ["partitions.identity"], lambda a: a["total", "partitions.identity"]),
    "partitions.closed_form_s": ("s", ["partitions.closed_form"], lambda a: a["total", "partitions.closed_form"]),
    "formulas.closed_form_s": ("s", ["formulas.closed_form"], lambda a: a["total", "formulas.closed_form"]),
    "cli.main_s": ("s", ["cli.main"], lambda a: a["total", "cli.main"]),
    "cli.self_s": ("s", ["cli.main"], lambda a: a["self", "cli.main"]),
    **{
        f"cli.exit_code_counts.{code}": (
            "count", ["cli.main"], lambda a, code=code: a["count", f"cli.exit_code_counts.{code}"]
        )
        for code in range(4)
    },
    "cli.stdout_bytes": ("bytes", ["cli.main"], lambda a: a["count", "cli.stdout_bytes"]),
    "trace.other_s": ("s", [], lambda a: a["self", "op"]),
    "trace.other_ratio": ("ratio", [], lambda a: _ratio(a["self", "op"], a["total", "op"])),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures for one traced set-up plus one traced round."""
    agg = _aggregate(tracer)
    return {
        name: {"value": fn(agg), "unit": unit}
        for name, (unit, needs, fn) in PER_LAYER.items()
        if not tracer.missing.intersection(needs)
    }


def other_by_op(tracer: Tracer) -> dict[int, tuple[float, float]]:
    """Op id -> (op seconds, seconds covered by no layer span)."""
    child = _child_durations(tracer)
    op_name = tracer._ids.get("op")
    return {
        tracer.op[i]: (tracer.dur[i], tracer.dur[i] - child[i])
        for i in range(len(tracer.dur))
        if tracer.name[i] == op_name
    }
