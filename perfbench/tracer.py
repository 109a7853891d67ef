"""Outside-in tracer for the benchmark's traced runs.

The tracer replaces public lrctower callables (module attributes and a few
class attributes) with thin wrappers; nothing inside the package changes.
Three wrapper kinds keep the cost proportional to what each boundary needs:

* span  -- one record (name, start, end, parent, leaf time) per call;
* leaf  -- hot inner functions: call count and total time only, with the
           time charged to the enclosing span so self times stay exact;
* count -- call count only (field-element arithmetic, place validation).

Spans are kept in memory and written out once, at the end of the run.
A span's self time is its duration minus its child spans and leaf calls.
"""

from __future__ import annotations

import json
import time

_clock = time.perf_counter

# (module, attribute path, wrapper kind, metric name)
TARGETS = (
    ("galois", "field_create", "span", "galois.field_create"),
    ("galois", "FieldSpec.tables", "span", "galois.tables"),
    ("galois", "artin_schreier_kernel", "span", "galois.subspace"),
    ("galois", "unit_subgroup", "span", "galois.subspace"),
    ("galois", "repair_subspace", "span", "galois.subspace"),
    ("galois", "FieldElement.__mul__", "count", "galois.elem_mul"),
    ("galois", "FieldElement.inverse", "count", "galois.elem_inverse"),
    ("tower", "enumerate_places", "span", "tower.enumerate_places"),
    ("tower", "build_subgroup", "span", "tower.build_subgroup"),
    ("tower", "orbit_partition", "span", "tower.orbit_partition"),
    ("tower", "act_inverse", "count", "tower.act_inverse"),
    ("tower", "validate_place", "count", "tower.validate_place"),
    ("codes", "good_function", "span", "codes.good_function"),
    ("codes", "build_rational_lrc", "span", "codes.build_rational_lrc"),
    ("codes", "naive_lrc", "span", "codes.naive_lrc"),
    ("codes", "null_space", "span", "codes.null_space"),
    ("codes", "matrix_rank", "span", "codes.matrix_rank"),
    ("codes", "to_json", "span", "codes.to_json"),
    ("codes", "from_json", "span", "codes.from_json"),
    ("codes", "encode", "span", "codes.encode"),
    ("codes", "local_repair", "span", "codes.local_repair"),
    ("codes", "min_distance", "span", "codes.min_distance"),
    ("codes", "verify_locality", "span", "codes.verify_locality"),
    ("codes", "all_codewords", "span", "codes.all_codewords"),
    ("bounds", "gv_bound", "span", "bounds.gv_bound"),
    ("bounds", "find_s0", "span", "bounds.find_s0"),
    ("bounds", "gv_derivative_sign", "leaf", "bounds.gv_derivative_sign"),
    ("bounds", "lp_bound", "span", "bounds.lp_bound"),
    ("bounds", "lp_inner", "leaf", "bounds.lp_inner"),
    ("bounds", "closed_bound", "span", "bounds.closed_bound"),
    ("bounds", "sweep", "span", "bounds.sweep"),
    ("bounds", "beats_gv_localities", "span", "bounds.beats_gv_localities"),
    ("bounds", "admissible_localities", "span", "bounds.admissible_localities"),
)

LAYERS = ("galois", "tower", "bounds", "codes", "cli")


class Tracer:
    """Span recorder; `install` wraps the TARGETS, `uninstall` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # index -> (name id, start, end, parent, leaf s)
        self._stack: list[int] = []
        self._leaf_acc: list[float] = []  # leaf time per open span
        self.leaf: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: dict[str, list] = {}  # name -> [calls]
        self._undo: list = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        nid = self._nid(name)
        spans, stack, acc = self.spans, self._stack, self._leaf_acc

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            acc.append(0.0)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, acc.pop())

        return traced

    def leaf_timer(self, name: str, fn):
        cell = self.leaf.setdefault(name, [0, 0.0])
        acc = self._leaf_acc

        def timed(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                cell[0] += 1
                cell[1] += dt
                if acc:
                    acc[-1] += dt

        return timed

    def counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Wrap every TARGETS entry found on the given lrctower package."""
        makers = {"span": self.span, "leaf": self.leaf_timer, "count": self.counter}
        for module_name, path, kind, name in TARGETS:
            owner = getattr(package, module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, makers[kind](name, original))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Self seconds and call counts per name, plus count-only totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (nid, t0, t1, _, leaf_s) in enumerate(spans):
            name = self.names[nid]
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i] - leaf_s
            calls[name] = calls.get(name, 0) + 1
        for name, (n, total) in self.leaf.items():
            self_s[name] = self_s.get(name, 0.0) + total
            calls[name] = calls.get(name, 0) + n
        counts = {name: cell[0] for name, cell in self.counts.items()}
        return {"self_s": self_s, "calls": calls, "counts": counts}

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the recorded spans and the summary as one JSON document."""
        doc = {
            "names": self.names,
            "spans": self.spans,
            "summary": self.summary(),
        }
        doc.update(extra or {})
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def merge(summaries) -> dict:
    """Sum several `Tracer.summary()` results."""
    out = {"self_s": {}, "calls": {}, "counts": {}}
    for summ in summaries:
        for key in out:
            for name, value in summ[key].items():
                out[key][name] = out[key].get(name, 0) + value
    return out
