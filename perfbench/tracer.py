"""Spans and counters around calls into each coxkit module, for the traced
run only.

`Tracer.install()` rebinds public functions and methods of the coxkit
modules (and the few private helpers that carry the work counts) to
wrappers defined here; nothing under src/ changes.  A span records (name,
start, end, parent span, query id) in flat arrays kept in memory; a counter
wrapper only counts calls, keyed by the name of the innermost open span,
because a span per scalar operation would swamp the run.  Calls made
outside every span (the benchmark's own input conversion) are not counted.
`write()` dumps the spans at exit and `reduce()` turns them into the
per-layer metrics.

A name the installed coxkit no longer has is listed in `skipped`, and the
traced run then fails rather than report 0 for the metrics that need it:
a refactor of coxkit must update the trace points here.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (span name, module, owner attribute or None, attribute)
SPANS = (
    ("corpus.load", "coxkit.corpus", None, "load"),
    ("scalar.build_field", "coxkit.scalar", None, "build_field"),
    ("coxgroup.normalize", "coxkit.coxgroup", "CoxeterSystem", "normalize"),
    ("coxgroup.enumerate", "coxkit.coxgroup", "CoxeterSystem", "elements_up_to"),
    ("coxgroup.multiply", "coxkit.coxgroup", "GroupElement", "__mul__"),
    ("coxgroup.inverse", "coxkit.coxgroup", "GroupElement", "inverse"),
    ("coxgroup.descents", "coxkit.coxgroup", "GroupElement", "left_descents"),
    ("coxgroup.descents", "coxkit.coxgroup", "GroupElement", "right_descents"),
    ("coxgroup.fixes", "coxkit.coxgroup", "GroupElement", "fixes_dual_coords"),
    ("roots.reflection_of_root", "coxkit.roots", None, "reflection_of_root"),
    ("roots.descend_root", "coxkit.roots", None, "descend_root"),
    ("titscone.locate", "coxkit.titscone", None, "locate"),
    ("titscone.stabilizer", "coxkit.titscone", None, "stabilizer"),
    ("parabolic.make", "coxkit.parabolic", None, "make"),
    ("parabolic.intersect", "coxkit.parabolic", None, "intersect"),
    ("parabolic.contains", "coxkit.parabolic", "Parabolic", "contains"),
    ("parabolic.contains_element", "coxkit.parabolic", "Parabolic", "contains_element"),
    ("paraclose.pc", "coxkit.paraclose", None, "pc"),
    ("paraclose.candidates", "coxkit.paraclose", None, "_candidates"),
)

# (counter name, module, owner, attribute, also sum len(result))
COUNTERS = (
    ("scalar.mul", "coxkit.scalar", "FieldScalar", "__mul__", False),
    ("scalar.mul", "coxkit.scalar", "FieldScalar", "__rmul__", False),
    ("scalar.add", "coxkit.scalar", "FieldScalar", "__add__", False),
    ("scalar.add", "coxkit.scalar", "FieldScalar", "__radd__", False),
    ("scalar.add", "coxkit.scalar", "FieldScalar", "__sub__", False),
    ("scalar.add", "coxkit.scalar", "FieldScalar", "__rsub__", False),
    ("scalar.add", "coxkit.scalar", "FieldScalar", "__neg__", False),
    ("scalar.sign", "coxkit.scalar", "FieldScalar", "sign", False),
    ("scalar.refine", "coxkit.scalar", "FieldContext", "_refine_iso", False),
    # the descent walk of a normalize miss; the length of the word it emits
    ("coxgroup.descent", "coxkit.coxgroup", "CoxeterSystem", "_word_from_inverse_matrix", True),
    # one dual generator application (a step of the locate walk)
    ("coxgroup.dual_step", "coxkit.coxgroup", "CoxeterSystem", "_apply_gen_dual", False),
)

LAYERS = ("coxgroup", "roots", "titscone", "parabolic", "paraclose")


class Tracer:
    def __init__(self):
        self.names: list[str] = ["query"]
        self._ids = {"query": 0}
        self.name = array("h")
        self.parent = array("l")
        self.qid = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_query = -1
        self.counts: Counter = Counter()   # (counter, enclosing span name) -> n
        self.skipped: list[str] = []
        self._undo = []

    # -- recording ----------------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.qid.append(self.current_query)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx, t0):
        self.end[idx] = time.perf_counter()
        self.start[idx] = t0
        self.stack.pop()

    def run_query(self, qid, fn, *args):
        """Run one query under a root span carrying its query id."""
        self.current_query = qid
        idx = self._open(0)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0)
            self.current_query = -1

    def _span(self, name, fn):
        name_id, open_, close = self._id(name), self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx, t0)
        return traced

    def _counter(self, name, fn, with_len):
        counts, stack, span_name, names = self.counts, self.stack, self.name, self.names
        calls, amount = name + ".calls", name + ".len"

        def counted(*args, **kwargs):
            top = stack[-1]
            if top < 0:  # outside every span: the benchmark's own work
                return fn(*args, **kwargs)
            where = names[span_name[top]]
            counts[calls, where] += 1
            result = fn(*args, **kwargs)
            if with_len and result is not None:
                counts[amount, where] += len(result)
            return result
        return counted

    # -- installation -------------------------------------------------------------

    def _rebind(self, module, owner, attr, make):
        mod = sys.modules.get(module)
        holder = getattr(mod, owner, None) if owner else mod
        if holder is None or attr not in vars(holder):
            self.skipped.append(f"{module}.{owner + '.' if owner else ''}{attr}")
            return
        orig = vars(holder)[attr]
        if isinstance(orig, property):
            wrapped = property(make(orig.fget))
        else:
            wrapped = make(orig)
        if owner:
            self._set(holder, attr, orig, wrapped)
            return
        # a module function: rebind every coxkit namespace that imported it
        for name, other in list(sys.modules.items()):
            if name == "coxkit" or name.startswith("coxkit."):
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._set(other, key, orig, wrapped)

    def _set(self, holder, attr, orig, wrapped):
        setattr(holder, attr, wrapped)
        self._undo.append((holder, attr, orig))

    def install(self):
        import coxkit  # noqa: F401  (loads every coxkit module)
        for name, module, owner, attr in SPANS:
            self._rebind(module, owner, attr, lambda fn, n=name: self._span(n, fn))
        for name, module, owner, attr, with_len in COUNTERS:
            self._rebind(module, owner, attr,
                         lambda fn, n=name, w=with_len: self._counter(n, fn, w))

    def uninstall(self):
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()

    # -- output -------------------------------------------------------------------

    def write(self, path):
        """Spans as a JSON header line followed by the raw arrays."""
        header = {"names": self.names, "spans": len(self.name),
                  "arrays": [["name", "h"], ["parent", "l"], ["qid", "l"],
                             ["start", "d"], ["end", "d"]],
                  "counts": [[k, w, n] for (k, w), n in sorted(self.counts.items())]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.qid, self.start, self.end):
                arr.tofile(fh)

    def reduce(self):
        """Per span name over the timed queries: calls, self seconds, seconds;
        per (span name, parent span name): calls; over the whole run, set-up
        included: seconds and self seconds per span name.  Self time is a
        span's duration minus its children's durations."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, self_s, total_s, under = Counter(), Counter(), Counter(), Counter()
        all_s, all_self_s = Counter(), Counter()
        names, name, parent, qid = self.names, self.name, self.parent, self.qid
        for i in range(n):
            nm = names[name[i]]
            all_s[nm] += dur[i]
            all_self_s[nm] += dur[i] - child[i]
            if qid[i] < 0:
                continue
            calls[nm] += 1
            self_s[nm] += dur[i] - child[i]
            total_s[nm] += dur[i]
            p = parent[i]
            under[nm, names[name[p]] if p >= 0 else ""] += 1
        return {"calls": calls, "self_s": self_s, "total_s": total_s,
                "under": under, "all_s": all_s, "all_self_s": all_self_s}


# Per-layer metrics and their units, in report order.  "/query" figures are
# totals over the timed queries divided by their number; set-up figures
# (corpus.load.s, scalar.build_field.s, coxgroup.enumerate.self_ms,
# paraclose.candidates.build_s) cover the whole traced run.
PER_LAYER_UNITS = {
    "scalar.mul.calls": "1/query", "scalar.add.calls": "1/query",
    "scalar.sign.calls": "1/query", "scalar.refine.calls": "1/query",
    "scalar.build_field.s": "s", "corpus.load.s": "s",
    "coxgroup.normalize.calls": "1/query", "coxgroup.normalize.self_ms": "ms/query",
    "coxgroup.normalize.miss_ratio": "ratio", "coxgroup.descent.steps": "1/query",
    "coxgroup.intern.size": "count",
    "coxgroup.fixes.calls": "1/query", "coxgroup.fixes.self_ms": "ms/query",
    "coxgroup.enumerate.self_ms": "ms",
    "paraclose.candidates.build_s": "s",
    "paraclose.pc.calls": "1/query", "paraclose.pc.self_ms": "ms/query",
    "paraclose.candidates.tested": "1/query", "paraclose.refinements": "1/query",
    "parabolic.make.calls": "1/query", "parabolic.make.self_ms": "ms/query",
    "parabolic.contains.calls": "1/query",
    "parabolic.intersect.calls": "1/query", "parabolic.intersect.self_ms": "ms/query",
    "parabolic.intersect.trials": "1/query",
    "titscone.locate.calls": "1/query", "titscone.locate.self_ms": "ms/query",
    "titscone.walk.steps": "1/locate",
    "roots.reflection_of_root.calls": "1/query",
    "roots.reflection_of_root.self_ms": "ms/query",
    "roots.descend_root.calls": "1/query", "roots.descend_root.self_ms": "ms/query",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "coxgroup.normalize.self_share": "ratio", "coxgroup.fixes.self_share": "ratio",
    "bench.query.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_metrics(tracer: Tracer, queries: int, intern_size: int, time_scale: float):
    """The per-layer metrics of one traced run, except trace.overhead_ratio,
    which needs the untraced run too.  Times are multiplied by time_scale
    (reference seconds per measured second).  Counters must have been reset
    when the timed phase began."""
    r = tracer.reduce()
    for key in ("self_s", "total_s", "all_s", "all_self_s"):
        r[key] = Counter({k: v * time_scale for k, v in r[key].items()})
    calls, self_s, under, all_s = r["calls"], r["self_s"], r["under"], r["all_s"]
    q = max(queries, 1)
    busy = r["total_s"]["query"] or 1.0

    def count(name, where):
        return sum(v for (k, w), v in tracer.counts.items()
                   if k == name and where in (None, w))

    def per_q(name, where=None):
        return count(name, where) / q

    def calls_q(span):
        return calls[span] / q

    def self_ms_q(span):
        return self_s[span] / q * 1e3

    m = {
        "scalar.mul.calls": per_q("scalar.mul.calls"),
        "scalar.add.calls": per_q("scalar.add.calls"),
        "scalar.sign.calls": per_q("scalar.sign.calls"),
        "scalar.refine.calls": per_q("scalar.refine.calls"),
        "scalar.build_field.s": all_s["scalar.build_field"],
        "corpus.load.s": all_s["corpus.load"],
        "coxgroup.normalize.calls": calls_q("coxgroup.normalize"),
        "coxgroup.normalize.self_ms": self_ms_q("coxgroup.normalize"),
        "coxgroup.normalize.miss_ratio": count("coxgroup.descent.calls", "coxgroup.normalize")
            / max(calls["coxgroup.normalize"], 1),
        "coxgroup.descent.steps": per_q("coxgroup.descent.len", "coxgroup.normalize"),
        "coxgroup.intern.size": intern_size,
        "coxgroup.fixes.calls": calls_q("coxgroup.fixes"),
        "coxgroup.fixes.self_ms": self_ms_q("coxgroup.fixes"),
        "coxgroup.enumerate.self_ms": r["all_self_s"]["coxgroup.enumerate"] * 1e3,
        "paraclose.candidates.build_s": all_s["paraclose.candidates"],
        "paraclose.pc.calls": calls_q("paraclose.pc"),
        "paraclose.pc.self_ms": self_ms_q("paraclose.pc"),
        "paraclose.candidates.tested": under["coxgroup.fixes", "paraclose.pc"] / q,
        "paraclose.refinements": under["parabolic.intersect", "paraclose.pc"] / q,
        "parabolic.make.calls": calls_q("parabolic.make"),
        "parabolic.make.self_ms": self_ms_q("parabolic.make"),
        "parabolic.contains.calls": calls_q("parabolic.contains"),
        "parabolic.intersect.calls": calls_q("parabolic.intersect"),
        "parabolic.intersect.self_ms": self_ms_q("parabolic.intersect"),
        "parabolic.intersect.trials": under["titscone.locate", "parabolic.intersect"] / q,
        "titscone.locate.calls": calls_q("titscone.locate"),
        "titscone.locate.self_ms": self_ms_q("titscone.locate"),
        "titscone.walk.steps": count("coxgroup.dual_step.calls", "titscone.locate")
            / max(calls["titscone.locate"], 1),
        "roots.reflection_of_root.calls": calls_q("roots.reflection_of_root"),
        "roots.reflection_of_root.self_ms": self_ms_q("roots.reflection_of_root"),
        "roots.descend_root.calls": calls_q("roots.descend_root"),
        "roots.descend_root.self_ms": self_ms_q("roots.descend_root"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + ".")) / busy
    m["coxgroup.normalize.self_share"] = self_s["coxgroup.normalize"] / busy
    m["coxgroup.fixes.self_share"] = self_s["coxgroup.fixes"] / busy
    m["bench.query.self_share"] = self_s["query"] / busy
    return m
