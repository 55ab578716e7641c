"""Span tracing at atlascover's module boundaries, installed from outside.

The tracer replaces public functions and methods of the package with
wrappers for the duration of a traced flow and restores them afterwards.
A function is replaced in every ``atlascover`` module that binds it, so
``verify.covers_points`` and ``suspension.covers_points`` are both
observed.  Nothing under ``src/`` is modified.

Spans are kept in memory as ``[id, name, start, end, parent, flow, active,
attrs, outer]`` and written out when the run ends.  ``active`` is the time
the span was running; for a generator that is the sum of its resumptions.
``outer`` is false for a span nested inside another span of the same name
(the recursive ``covers_points`` calls, one per suspension level).  Self
time is ``active`` minus the ``active`` of the direct children.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

E2E_LOCATE = "locate_pts_per_s"
E2E_CERTIFY = "certify_charts_per_s"
E2E_COVER = "cover_s"
E2E_CHAIN = "chain_s"
E2E_FLOW = "flow_s"

# name -> (unit, better, [(end-to-end metric, workload)], note)
LAYER_METRICS = {
    "annulus.RingDisks.covers.pts_per_s": (
        "points/s", "higher", [(E2E_LOCATE, "lazy-large")],
        "inner kernel of the suspension lookup"),
    "annulus.RingDisks.covers.self_s": (
        "s", "lower", [(E2E_LOCATE, "lazy-large")],
        "inner kernel of the suspension lookup; self time per flow"),
    "suspension.covers_points.calls": (
        "count", "lower", [(E2E_LOCATE, "lazy-large")],
        "calls per flow, one per suspension level"),
    "suspension.covers_points.self_s": (
        "s", "lower", [(E2E_LOCATE, "lazy-large")],
        "self time per flow over the nested spans"),
    "suspension.covers_points.list_scan.pts_per_s": (
        "points/s", "higher", [(E2E_LOCATE, "file-flows")],
        "calls on plain chart lists; should not move on lazy-large"),
    "suspension.iter_chart_arrays.charts_per_s": (
        "charts/s", "higher", [(E2E_CERTIFY, "lazy-large")], ""),
    "suspension.chart_candidates.cands_per_pt": (
        "cands/pt", "lower",
        [(E2E_CHAIN, "lazy-large"), (E2E_CHAIN, "file-flows")],
        "exact count of index selectivity"),
    "polydisc.cover_punctured_polydisc.s": (
        "s", "lower", [(E2E_COVER, "lazy-large"), (E2E_COVER, "file-flows")],
        "median per call"),
    "polydisc.polydisc_plan.s": (
        "s", "lower", [(E2E_COVER, "lazy-large"), (E2E_COVER, "file-flows")],
        "median per call"),
    "levelset.LevelBranchCharts.covers.pts_per_s": (
        "points/s", "higher",
        [(E2E_LOCATE, "file-flows"), (E2E_LOCATE, "lazy-large")],
        "reloaded on file-flows, lazy on lazy-large"),
    "levelset.LevelBranchCharts.contains.calls_per_pt": (
        "calls/pt", "lower",
        [(E2E_LOCATE, "file-flows"), (E2E_LOCATE, "lazy-large")],
        "branch membership attempts per located point"),
    "levelset.level_residual.calls": (
        "count", "lower", [(E2E_CERTIFY, "file-flows")], "calls per flow"),
    "verify.region_samples.pts_per_s": (
        "points/s", "higher",
        [(E2E_LOCATE, "lazy-large"), (E2E_LOCATE, "file-flows")], ""),
    "verify.check_coverage.s": (
        "s", "lower",
        [(E2E_LOCATE, "lazy-large"), (E2E_LOCATE, "file-flows")],
        "median per call"),
    "verify.certify_doubling.charts_per_s": (
        "charts/s", "higher",
        [(E2E_CERTIFY, "lazy-large"), (E2E_CERTIFY, "file-flows")], ""),
    "verify.chain_between.s": (
        "s", "lower", [(E2E_CHAIN, "lazy-large"), (E2E_CHAIN, "file-flows")],
        "median per call"),
    "verify.intersection_witness.calls": (
        "count", "lower",
        [(E2E_CHAIN, "lazy-large"), (E2E_CHAIN, "file-flows")],
        "outermost calls per flow"),
    "verify.intersection_witness.hit_ratio": (
        "ratio", "higher",
        [(E2E_CHAIN, "lazy-large"), (E2E_CHAIN, "file-flows")],
        "edges found per witness attempt"),
    "verify.intersection_witness.self_s": (
        "s", "lower", [(E2E_CHAIN, "lazy-large"), (E2E_CHAIN, "file-flows")],
        "self time per flow"),
    "jsonio.write_covering.s": (
        "s", "lower",
        [(m, "file-flows") for m in (E2E_COVER, E2E_LOCATE, E2E_CERTIFY, E2E_CHAIN)],
        "median per call; should not move on lazy-large"),
    "jsonio.write_covering.bytes": (
        "bytes", "lower",
        [(m, "file-flows") for m in (E2E_COVER, E2E_LOCATE, E2E_CERTIFY, E2E_CHAIN)],
        "bytes written per flow; should not move on lazy-large"),
    "jsonio.read_covering.s": (
        "s", "lower",
        [(m, "file-flows") for m in (E2E_COVER, E2E_LOCATE, E2E_CERTIFY, E2E_CHAIN)],
        "median per call; should not move on lazy-large"),
    "jsonio.write_achart_atlas.s": (
        "s", "lower", [(E2E_COVER, "acharts"), (E2E_CERTIFY, "acharts")],
        "median per call"),
    "jsonio.read_achart_atlas.s": (
        "s", "lower", [(E2E_COVER, "acharts"), (E2E_CERTIFY, "acharts")],
        "median per call"),
    "real_acharts.cover_monomial_graph.s": (
        "s", "lower", [(E2E_COVER, "acharts")], "median per call"),
    "real_acharts.verify_achart.charts_per_s": (
        "charts/s", "higher", [(E2E_CERTIFY, "acharts")],
        "the CLI's per-chart path"),
    "real_acharts.verify_achart_batch.charts_per_s": (
        "charts/s", "higher", [(E2E_CERTIFY, "acharts")],
        "called directly on the same atlas; moves the end-to-end metric "
        "once the CLI uses the batch path"),
    "real_acharts.graph_membership.pts_per_s": (
        "points/s", "higher", [(E2E_LOCATE, "acharts")], ""),
    "core.tolerance.calls": (
        "calls/op", "lower",
        [(m, w) for w in ("lazy-large", "file-flows", "acharts")
         for m in (E2E_LOCATE, E2E_CERTIFY)],
        "tolerance() calls per operation"),
    "cli.main.self_s": (
        "s", "lower", [(E2E_FLOW, "file-flows"), (E2E_FLOW, "acharts")],
        "self time per flow"),
    "trace.overhead_s": (
        "s", "lower", [],
        "median traced flow_s minus median untraced flow_s of the same run"),
}


def _n_rows(a) -> int:
    a = np.asarray(a)
    return int(a.shape[0]) if a.ndim else 1


def _covers_points_attrs(args, kwargs, result):
    from atlascover.annulus import RingDisks
    charts = args[0]
    plain = not isinstance(charts, RingDisks) and not hasattr(charts, "covers")
    return {"pts": _n_rows(args[1]), "list_scan": plain}


def _write_covering_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, kind, attrs(args, kwargs, result) or None)
# kind: "span" wraps a call, "gen" wraps a generator (its yields are counted
# as "items"), "count" only counts calls.
FUNCTIONS = [
    ("core", "tolerance", "count", None),
    ("suspension", "covers_points", "span", _covers_points_attrs),
    ("suspension", "iter_chart_arrays", "gen", lambda item: item[0].shape[0]),
    ("suspension", "chart_candidates", "gen", lambda item: 1),
    ("polydisc", "cover_punctured_polydisc", "span", None),
    ("polydisc", "polydisc_plan", "span", None),
    ("levelset", "level_residual", "count", None),
    ("verify", "region_samples", "span",
     lambda a, k, r: {"pts": _n_rows(r)}),
    ("verify", "check_coverage", "span", None),
    ("verify", "certify_doubling", "span",
     lambda a, k, r: {"charts": r.n_charts}),
    ("verify", "chain_between", "span", None),
    ("verify", "intersection_witness", "span",
     lambda a, k, r: {"hit": r is not None}),
    ("jsonio", "write_covering", "span", _write_covering_attrs),
    ("jsonio", "read_covering", "span", None),
    ("jsonio", "write_achart_atlas", "span", None),
    ("jsonio", "read_achart_atlas", "span", None),
    ("real_acharts", "cover_monomial_graph", "span", None),
    ("real_acharts", "verify_achart", "span", lambda a, k, r: {"charts": 1}),
    ("real_acharts", "verify_achart_batch", "span",
     lambda a, k, r: {"charts": len(a[0])}),
    ("real_acharts", "graph_membership", "span",
     lambda a, k, r: {"pts": _n_rows(r)}),
    ("cli", "main", "span", None),
]

# (module, class, method, kind, attrs)
METHODS = [
    ("annulus", "RingDisks", "covers", "span",
     lambda a, k, r: {"pts": int(np.asarray(a[1]).size)}),
    ("levelset", "LevelBranchCharts", "covers", "span",
     lambda a, k, r: {"pts": _n_rows(r)}),
    ("levelset", "LevelBranchCharts", "contains", "count", None),
]


class Tracer:
    """Collects spans and call counts while its patches are installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)      # flow -> name -> calls
        self.flow = None
        self._stack = []
        self._open_names = Counter()
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _push(self, name, start):
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, start, start, parent, self.flow,
                0.0, None, self._open_names[name] == 0]
        self.spans.append(span)
        return span

    def _enter(self, span):
        self._stack.append(span)
        self._open_names[span[1]] += 1

    def _leave(self, span, t0):
        now = perf_counter()
        span[3] = now
        span[6] += now - t0
        self._stack.pop()
        self._open_names[span[1]] -= 1

    def _span_wrapper(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.flow is None:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            span = tracer._push(name, t0)
            tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(span, t0)
            if attrs is not None:
                span[7] = attrs(args, kwargs, result)
            return result
        return wrapper

    def _gen_wrapper(self, name, fn, size):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.flow is None:
                yield from fn(*args, **kwargs)
                return
            it = fn(*args, **kwargs)
            span = None
            try:
                while True:
                    t0 = perf_counter()
                    if span is None:
                        span = tracer._push(name, t0)
                        span[7] = {"items": 0}
                    tracer._enter(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(span, t0)
                    span[7]["items"] += size(item)
                    yield item
            finally:
                it.close()
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.flow is not None:
                tracer.counts[tracer.flow][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, name, fn, kind, attrs):
        if kind == "span":
            return self._span_wrapper(name, fn, attrs)
        if kind == "gen":
            return self._gen_wrapper(name, fn, attrs)
        return self._count_wrapper(name, fn)

    # -- patching -----------------------------------------------------------

    def install(self):
        """Replace every binding of the traced callables in atlascover."""
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "atlascover" or n.startswith("atlascover."))]
        for mod_name, attr, kind, attrs in FUNCTIONS:
            orig = getattr(sys.modules[f"atlascover.{mod_name}"], attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", orig, kind, attrs)
            for m in mods:
                if m.__dict__.get(attr) is orig:
                    self._saved.append((m, attr, orig))
                    setattr(m, attr, wrapped)
        for mod_name, cls_name, attr, kind, attrs in METHODS:
            cls = getattr(sys.modules[f"atlascover.{mod_name}"], cls_name)
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(f"{mod_name}.{cls_name}.{attr}",
                                          orig, kind, attrs))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, flow, active, attrs, _ in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "flow": flow,
                                     "active": active, "attrs": attrs},
                                    separators=(",", ":")) + "\n")
            for flow, counts in sorted(self.counts.items()):
                fh.write(json.dumps({"flow": flow, "counts": dict(counts)},
                                    separators=(",", ":")) + "\n")

    def layer_metrics(self, flows: list, traced_flow_s: list,
                      untraced_flow_s: list, ops_attempted: int) -> dict:
        """Per-layer metrics over the traced flows (ids in ``flows``)."""
        self_s = defaultdict(float)             # (flow, name) -> self time
        by_name = defaultdict(list)
        for span in self.spans:
            self_s[span[5], span[1]] += span[6]
            if span[4] is not None:
                parent = self.spans[span[4]]
                self_s[parent[5], parent[1]] -= span[6]
            by_name[span[1]].append(span)

        def outer(name):
            return [s for s in by_name[name] if s[8]]

        def attr_sum(spans, key):
            return sum((s[7] or {}).get(key, 0) for s in spans)

        def rate(name, key, spans=None):
            spans = outer(name) if spans is None else spans
            busy = sum(s[6] for s in spans)
            return attr_sum(spans, key) / busy if busy > 0 else 0.0

        def per_flow(values):
            return statistics.median(values) if values else 0.0

        def self_per_flow(name):
            return per_flow([self_s[f, name] for f in flows])

        def calls_per_flow(name, outer_only=False):
            return per_flow([sum(1 for s in by_name[name]
                                 if s[5] == f and (s[8] or not outer_only))
                             for f in flows])

        def count_per_flow(name):
            return per_flow([self.counts[f][name] for f in flows])

        def median_call(name):
            d = [s[6] for s in outer(name)]
            return statistics.median(d) if d else 0.0

        list_scan = [s for s in by_name["suspension.covers_points"]
                     if (s[7] or {}).get("list_scan")]
        witness = outer("verify.intersection_witness")
        cands = outer("suspension.chart_candidates")
        level_pts = attr_sum(outer("levelset.LevelBranchCharts.covers"), "pts")
        contains = sum(self.counts[f]["levelset.LevelBranchCharts.contains"]
                       for f in flows)
        tol_calls = sum(self.counts[f]["core.tolerance"] for f in flows)
        overhead = (statistics.median(traced_flow_s)
                    - statistics.median(untraced_flow_s)
                    if traced_flow_s and untraced_flow_s else 0.0)

        values = {
            "annulus.RingDisks.covers.pts_per_s":
                rate("annulus.RingDisks.covers", "pts"),
            "annulus.RingDisks.covers.self_s":
                self_per_flow("annulus.RingDisks.covers"),
            "suspension.covers_points.calls":
                calls_per_flow("suspension.covers_points"),
            "suspension.covers_points.self_s":
                self_per_flow("suspension.covers_points"),
            "suspension.covers_points.list_scan.pts_per_s":
                rate("suspension.covers_points", "pts", list_scan),
            "suspension.iter_chart_arrays.charts_per_s":
                rate("suspension.iter_chart_arrays", "items"),
            "suspension.chart_candidates.cands_per_pt":
                attr_sum(cands, "items") / len(cands) if cands else 0.0,
            "polydisc.cover_punctured_polydisc.s":
                median_call("polydisc.cover_punctured_polydisc"),
            "polydisc.polydisc_plan.s": median_call("polydisc.polydisc_plan"),
            "levelset.LevelBranchCharts.covers.pts_per_s":
                rate("levelset.LevelBranchCharts.covers", "pts"),
            "levelset.LevelBranchCharts.contains.calls_per_pt":
                contains / level_pts if level_pts else 0.0,
            "levelset.level_residual.calls":
                count_per_flow("levelset.level_residual"),
            "verify.region_samples.pts_per_s":
                rate("verify.region_samples", "pts"),
            "verify.check_coverage.s": median_call("verify.check_coverage"),
            "verify.certify_doubling.charts_per_s":
                rate("verify.certify_doubling", "charts"),
            "verify.chain_between.s": median_call("verify.chain_between"),
            "verify.intersection_witness.calls":
                calls_per_flow("verify.intersection_witness", outer_only=True),
            "verify.intersection_witness.hit_ratio":
                attr_sum(witness, "hit") / len(witness) if witness else 0.0,
            "verify.intersection_witness.self_s":
                self_per_flow("verify.intersection_witness"),
            "jsonio.write_covering.s": median_call("jsonio.write_covering"),
            "jsonio.write_covering.bytes": per_flow(
                [attr_sum([s for s in outer("jsonio.write_covering")
                           if s[5] == f], "bytes") for f in flows]),
            "jsonio.read_covering.s": median_call("jsonio.read_covering"),
            "jsonio.write_achart_atlas.s":
                median_call("jsonio.write_achart_atlas"),
            "jsonio.read_achart_atlas.s": median_call("jsonio.read_achart_atlas"),
            "real_acharts.cover_monomial_graph.s":
                median_call("real_acharts.cover_monomial_graph"),
            "real_acharts.verify_achart.charts_per_s":
                rate("real_acharts.verify_achart", "charts"),
            "real_acharts.verify_achart_batch.charts_per_s":
                rate("real_acharts.verify_achart_batch", "charts"),
            "real_acharts.graph_membership.pts_per_s":
                rate("real_acharts.graph_membership", "pts"),
            "core.tolerance.calls":
                tol_calls / ops_attempted if ops_attempted else 0.0,
            "cli.main.self_s": self_per_flow("cli.main"),
            "trace.overhead_s": overhead,
        }
        calls = Counter({name: len(spans) for name, spans in by_name.items()})
        for f in flows:
            calls.update(self.counts[f])
        calls["suspension.covers_points.list_scan"] = len(list_scan)
        exercised = {name: calls[name.rsplit(".", 1)[0]] > 0
                     for name in values if not name.startswith("trace.")}
        return {"values": values, "exercised": exercised}
