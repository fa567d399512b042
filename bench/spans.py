"""Spans around the package's public functions, recorded from outside.

`Tracer.install` replaces each traced function at the place where callers
look it up (a module global such as `ontoforge.cli.classify`, or a method on
a class such as `Ontology.add_axiom`) with a wrapper that records one span:
(id, parent id, name, start, end). Spans stay in memory until the caller
takes them; `layer_metrics` turns one batch into per-layer totals, self
times and counts.

A function missing from the package is skipped, and its layer reads 0.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter


def _bump(counts: dict, key: str, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = {}
        self._stack = [0]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run fn as one span named name; count(counts, args, result) after."""
        sid = self._next_id
        self._next_id = sid + 1
        stack = self._stack
        parent = stack[-1]
        stack.append(sid)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))
        if count is not None:
            count(self.counts, args, result)
        return result

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        if isinstance(owner, type):
            original = vars(owner).get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            return
        call = self.call

        def traced(*args, **kwargs):
            return call(name, original, *args, count=count, **kwargs)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from ontoforge import cli, evaluator, model, patterns, reasoner, testkit

        w = self.wrap

        def read_count(c, args, forms):
            _bump(c, "sexpr.bytes", len(args[0].encode("utf-8")))
            _bump(c, "sexpr.forms", len(forms))

        def parse_count(c, args, onto):
            _bump(c, "importer.bytes", len(args[0].encode("utf-8")))
            _bump(c, "importer.axioms", len(onto.axioms))

        def normalize_count(c, args, res):
            _bump(c, "reasoner.normal_axioms", len(res.normal))
            _bump(c, "reasoner.skipped", len(res.skipped))

        def saturate_count(c, args, result):
            S, R = result
            _bump(c, "reasoner.s_entries", sum(len(s) for s in S.values()))
            _bump(c, "reasoner.r_edges", sum(len(e) for e in R.values()))

        w(evaluator, "read_forms", "sexpr.read", read_count)
        w(evaluator, "eval_forms", "evaluator.eval",
          lambda c, a, env: _bump(c, "model.axioms", len(env.ontology.axioms)))
        w(evaluator.Evaluator, "eval_top", "evaluator.eval")
        w(evaluator.Evaluator, "eval_defclass", "evaluator.eval")
        w(evaluator, "parse_functional", "importer.parse", parse_count)
        w(evaluator, "intern_external", "importer.intern",
          lambda c, a, n: _bump(c, "importer.bindings", n))
        for fn in ("disjoint_subclasses", "affix_block", "value_partition",
                   "define_template", "apply_template"):
            w(patterns, fn, "patterns.expand")
        w(model.Ontology, "add_axiom", "model.add_axiom")
        w(model.Ontology, "remove_axiom", "model.remove_axiom")
        w(model.Ontology, "axioms_referencing", "model.axioms_referencing")
        w(cli, "classify", "reasoner.classify")
        w(testkit, "classify", "reasoner.classify")
        w(reasoner, "normalize", "reasoner.normalize", normalize_count)
        w(reasoner, "saturate", "reasoner.saturate", saturate_count)
        w(cli, "direct_superclasses", "reasoner.direct_supers")
        w(cli, "run_tests", "testkit.run_tests",
          lambda c, a, report: _bump(c, "testkit.assertions", report.assertions))
        w(testkit, "run_probe_block", "testkit.probe_block")
        w(cli, "render_omn", "serializer.render_omn",
          lambda c, a, text: _bump(c, "serializer.omn_bytes", len(text.encode("utf-8"))))
        w(cli, "render_functional", "serializer.render_ofn",
          lambda c, a, text: _bump(c, "serializer.ofn_bytes", len(text.encode("utf-8"))))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self):
        """The spans and counts recorded since the last take, then reset."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


# name -> (span name, "total" | "self" | "calls") for the span-derived metrics
SPAN_METRICS = {
    "importer.parse_s": ("importer.parse", "total"),
    "importer.intern_s": ("importer.intern", "total"),
    "model.add_axiom_s": ("model.add_axiom", "total"),
    "model.add_axiom_calls": ("model.add_axiom", "calls"),
    "sexpr.read_s": ("sexpr.read", "total"),
    "evaluator.eval_s": ("evaluator.eval", "self"),
    "patterns.expand_s": ("patterns.expand", "self"),
    "reasoner.classify_s": ("reasoner.classify", "total"),
    "reasoner.classify_calls": ("reasoner.classify", "calls"),
    "reasoner.normalize_s": ("reasoner.normalize", "total"),
    "reasoner.saturate_s": ("reasoner.saturate", "total"),
    "reasoner.project_s": ("reasoner.classify", "self"),
    "reasoner.direct_supers_s": ("reasoner.direct_supers", "total"),
    "reasoner.direct_supers_calls": ("reasoner.direct_supers", "calls"),
    "testkit.run_tests_s": ("testkit.run_tests", "total"),
    "testkit.probe_block_s": ("testkit.probe_block", "self"),
    "testkit.probe_blocks": ("testkit.probe_block", "calls"),
    "model.axioms_referencing_s": ("model.axioms_referencing", "total"),
    "model.remove_axiom_s": ("model.remove_axiom", "total"),
    "model.remove_axiom_calls": ("model.remove_axiom", "calls"),
    "serializer.render_omn_s": ("serializer.render_omn", "total"),
    "serializer.render_ofn_s": ("serializer.render_ofn", "total"),
    "cli.self_s": ("cli.main", "self"),
}

COUNT_METRICS = (
    "importer.bytes",
    "importer.axioms",
    "importer.bindings",
    "sexpr.bytes",
    "sexpr.forms",
    "model.axioms",
    "reasoner.normal_axioms",
    "reasoner.s_entries",
    "reasoner.r_edges",
    "reasoner.skipped",
    "testkit.assertions",
    "serializer.omn_bytes",
    "serializer.ofn_bytes",
)


def layer_metrics(spans, counts) -> dict[str, float | int]:
    """Per-layer totals, self times and call counts of one batch of spans.

    A span's self time is its duration minus the durations of its direct
    children. Spans are appended when they end, so every child precedes its
    parent and one pass suffices. Totals of a name that nests inside itself
    would double count, so such layers report self time.
    """
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    in_children: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end in spans:
        d = end - start
        total[name] += d
        self_time[name] += d - in_children.pop(sid, 0.0)
        calls[name] += 1
        in_children[parent] += d
    pick = {"total": total, "self": self_time, "calls": calls}
    out: dict[str, float | int] = {}
    for metric, (name, kind) in SPAN_METRICS.items():
        out[metric] = pick[kind].get(name, 0)
    for key in COUNT_METRICS:
        out[key] = counts.get(key, 0)
    return out


def write_spans(spans, path) -> None:
    """One span per line: id, parent id, name, start and end in seconds."""
    with open(path, "a", encoding="utf-8") as fh:
        for sid, parent, name, start, end in spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
