"""Spans around the library's public functions, for the traced run.

The tracer replaces each public function at the module attribute its
callers resolve it through (``qunimodal.unimodality.gaussian``,
``qunimodal.certify.check_strict``, ``qunimodal.kronecker.lr``, ...)
with a wrapper that records one span per call: name, start, end, parent
span and op id.  Spans stay in memory in flat arrays and are written
out once, when the run ends.  A layer's self time is its busy time minus
the time its direct child spans cover.

``LAYER_METRICS`` is the per-layer metric table: for each metric, its
unit, which direction is better, and the end-to-end metric and workload
it is expected to move.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter
from functools import wraps

# (metric, unit, better, end-to-end metrics it should move, on which workloads)
LAYER_METRICS = (
    ("qbinomial.gaussian.calls", "count", "lower", "ops_per_s, op_p90_ms", "boxes; no move on certificates"),
    ("qbinomial.gaussian.busy_s", "s", "lower", "ops_per_s, op_p90_ms", "boxes; no move on certificates"),
    ("qbinomial.gaussian.cells", "count", "lower", "ops_per_s, op_p90_ms", "boxes; no move on certificates"),
    ("qbinomial.gaussian.hit_ratio", "fraction", "higher", "op_p50_ms", "certificates"),
    ("unimodality.check_strict.calls", "count", "lower", "op_p50_ms", "certificates (one call per leaf visit); a small share on boxes"),
    ("unimodality.check_strict.self_s", "s", "lower", "op_p50_ms", "certificates (one call per leaf visit); a small share on boxes"),
    ("unimodality.classify.calls", "count", "higher", "ops_per_s", "certificates"),
    ("unimodality.classify.busy_s", "s", "lower", "ops_per_s", "certificates"),
    ("certify.build_base_registry.busy_s", "s", "lower", "setup_s", "all workloads"),
    ("certify.certify.calls", "count", "higher", "ops_per_s, peak_rss_mb", "certificates"),
    ("certify.certify.busy_s", "s", "lower", "ops_per_s, peak_rss_mb", "certificates"),
    ("certify.certify.nodes", "count", "lower", "ops_per_s, peak_rss_mb", "certificates"),
    ("certify.serialize_certificate.busy_s", "s", "lower", "ops_per_s, peak_rss_mb", "certificates"),
    ("certify.serialize_certificate.bytes", "bytes", "lower", "ops_per_s, peak_rss_mb", "certificates"),
    ("certify.parse_certificate.busy_s", "s", "lower", "ops_ok_frac, op_p90_ms", "certificates"),
    ("certify.parse_certificate.failed", "count", "lower", "ops_ok_frac, op_p90_ms", "certificates"),
    ("certify.verify.busy_s", "s", "lower", "ops_per_s, op_p50_ms", "certificates"),
    ("certify.verify.self_s", "s", "lower", "ops_per_s, op_p50_ms", "certificates"),
    ("certify.verify.leaf_checks", "count", "lower", "ops_per_s, op_p50_ms", "certificates"),
    ("certify.verify.rejected", "count", "higher", "ops_per_s, op_p50_ms", "certificates"),
    ("partitions.partitions_of.calls", "count", "lower", "ops_per_s", "kronecker; nil elsewhere"),
    ("partitions.partitions_of.busy_s", "s", "lower", "ops_per_s", "kronecker; nil elsewhere"),
    ("kronecker.g_oracle.calls", "count", "higher", "ops_per_s, op_p50_ms", "kronecker"),
    ("kronecker.g_oracle.self_s", "s", "lower", "ops_per_s, op_p50_ms", "kronecker"),
    ("kronecker.g_oracle.positive_ratio", "fraction", "higher", "ops_per_s, op_p50_ms", "kronecker"),
    ("kronecker.g_two_row.calls", "count", "higher", "op_p90_ms", "kronecker (routes ops)"),
    ("kronecker.g_two_row.busy_s", "s", "lower", "op_p90_ms", "kronecker (routes ops)"),
    ("kronecker.a_k.calls", "count", "lower", "op_p90_ms", "kronecker (routes ops)"),
    ("kronecker.a_k.self_s", "s", "lower", "op_p90_ms", "kronecker (routes ops)"),
    ("lr.lr.calls", "count", "lower", "op_p90_ms", "kronecker"),
    ("lr.lr.busy_s", "s", "lower", "op_p90_ms", "kronecker"),
    ("lr.lr.nonzero_ratio", "fraction", "higher", "op_p90_ms", "kronecker"),
    ("lr.lr_count.hit_ratio", "fraction", "higher", "op_p90_ms", "kronecker"),
    ("kronecker.char.hit_ratio", "fraction", "higher", "peak_rss_mb, ops_per_s", "kronecker"),
    ("kronecker.char.size", "count", "lower", "peak_rss_mb, ops_per_s", "kronecker"),
    ("trace.overhead_s", "s", "lower", "(tracing cost: traced minus untraced wall time of the same ops)", "all workloads"),
    ("trace.overhead_frac", "fraction", "lower", "(tracing cost as a share of the untraced wall time)", "all workloads"),
)

# span name -> (module, attribute) pairs that callers resolve it through
WRAP_POINTS = (
    ("qbinomial.gaussian", (("UNI", "gaussian"), ("KRON", "gaussian"))),
    ("unimodality.check_strict", (("UNI", "check_strict"), ("CERT", "check_strict"))),
    ("unimodality.classify", (("UNI", "classify"),)),
    ("certify.build_base_registry", (("CERT", "build_base_registry"),)),
    ("certify.certify", (("CERT", "certify"),)),
    ("certify.serialize_certificate", (("CERT", "serialize_certificate"),)),
    ("certify.parse_certificate", (("CERT", "parse_certificate"),)),
    ("certify.verify", (("CERT", "verify"),)),
    ("partitions.partitions_of", (("KRON", "partitions_of"),)),
    ("kronecker.g_oracle", (("KRON", "g_oracle"),)),
    ("kronecker.g_two_row", (("KRON", "g_two_row"),)),
    ("kronecker.a_k", (("KRON", "a_k"),)),
    ("lr.lr", (("KRON", "lr"),)),
)

# memo tables whose cache_info() deltas over the timed ops give hit ratios
MEMOS = (
    ("qbinomial.gaussian", "QB", "gaussian"),
    ("lr.lr_count", "LR", "_lr_count"),
    ("kronecker.char", "KRON", "_char"),
)


def _cert_nodes(cert) -> int:
    count, stack = 0, [cert]
    while stack:
        cur = stack.pop()
        count += 1
        node = getattr(cur, "node", None)
        for child in (getattr(node, "left", None), getattr(node, "right", None)):
            if child is not None:
                stack.append(child)
    return count


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.nested = array("b")  # 1 when a span of the same name is open
        self.stack: list[int] = []
        self.open_by_name: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = -1
        self.op_kind = "setup"
        self.enabled = True
        self.missing: list[str] = []

    def wrap(self, name: str, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.nested.append(1 if self.open_by_name[nid] else 0)
            self.end.append(0.0)
            self.stack.append(idx)
            self.open_by_name[nid] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = clock()
                self.stack.pop()
                self.open_by_name[nid] -= 1
                if self.op_id >= 0:
                    self.counts[name + ".raised"] += 1
                raise
            self.end[idx] = clock()
            self.stack.pop()
            self.open_by_name[nid] -= 1
            if after is not None and self.op_id >= 0:
                after(self.counts, args, result)
            return result

        return traced

    def install(self, lib) -> None:
        """Wrap every point in WRAP_POINTS that exists in this version."""
        after = _after_hooks(self)
        for name, points in WRAP_POINTS:
            done: dict[int, object] = {}
            for mod_key, attr in points:
                mod = getattr(lib, mod_key)
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{mod.__name__}.{attr}")
                    continue
                if id(fn) not in done:
                    target = _count_misses(self, fn) if name == "qbinomial.gaussian" else fn
                    done[id(fn)] = self.wrap(name, target, after.get(name))
                setattr(mod, attr, done[id(fn)])

    def aggregate(self) -> dict:
        """Per-name calls, busy time, self time, and the leaf checks made
        under verify.  Spans of the set-up phase (op id -1) count only for
        the registry build, which happens there."""
        n = len(self.start)
        cover = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                cover[p] += self.end[i] - self.start[i]
        stats: dict[str, Counter] = {name: Counter() for name in self.names}
        names, name_of = self.names, self.name_of
        for i in range(n):
            name = names[name_of[i]]
            if self.op[i] < 0 and name != "certify.build_base_registry":
                continue
            dur = self.end[i] - self.start[i]
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += dur - cover[i]
            if not self.nested[i]:
                st["busy_s"] += dur
            p = self.parent[i]
            if name == "unimodality.check_strict" and p >= 0 and names[name_of[p]] == "certify.verify":
                stats["certify.verify"]["leaf_checks"] += 1
        return stats

    def dump(self, path) -> None:
        cols = {
            "names": self.names,
            "name": self.name_of.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(cols, fh, separators=(",", ":"))


def _count_misses(tracer: Tracer, memo):
    """Wrap the gaussian memo so each miss adds its box's cells."""
    info = getattr(memo, "cache_info", None)

    def gaussian(ell, m, *rest, **kwargs):
        before = info().misses if info else 0
        result = memo(ell, m, *rest, **kwargs)
        if tracer.op_id >= 0 and (info is None or info().misses > before):
            tracer.counts["qbinomial.gaussian.cells"] += ell * m
        return result

    return gaussian


def _after_hooks(tracer: Tracer) -> dict:
    def certify(counts, args, cert):
        counts["certify.certify.nodes"] += _cert_nodes(cert)

    def serialize(counts, args, text):
        counts["certify.serialize_certificate.bytes"] += len(text.encode())

    def verify(counts, args, outcome):
        if not outcome.ok:
            counts["certify.verify.rejected"] += 1

    def g_oracle(counts, args, value):
        if tracer.op_kind == "semigroup":
            counts["kronecker.g_oracle.sampled"] += 1
            counts["kronecker.g_oracle.positive"] += value > 0

    def lr(counts, args, value):
        counts["lr.lr.nonzero"] += value != 0

    return {
        "certify.certify": certify,
        "certify.serialize_certificate": serialize,
        "certify.verify": verify,
        "kronecker.g_oracle": g_oracle,
        "lr.lr": lr,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, counts: Counter, memo: dict, overhead_s: float, untraced_s: float) -> dict:
    """The LAYER_METRICS values from aggregated spans, counters and memo
    deltas.  A layer the workload never calls reports 0."""

    def st(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    values = {}
    for metric, *_ in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field in ("calls", "busy_s", "self_s", "leaf_checks"):
            values[metric] = st(layer, field)
        elif field == "hit_ratio":
            hits, misses = memo.get(layer, (0, 0, 0))[:2]
            values[metric] = _ratio(hits, hits + misses)
        elif field == "size":
            values[metric] = memo.get(layer, (0, 0, 0))[2]
        elif field == "positive_ratio":
            values[metric] = _ratio(counts["kronecker.g_oracle.positive"], counts["kronecker.g_oracle.sampled"])
        elif field == "nonzero_ratio":
            values[metric] = _ratio(counts["lr.lr.nonzero"], st("lr.lr", "calls"))
        elif field == "failed":
            values[metric] = counts[layer + ".raised"]
        elif metric == "trace.overhead_s":
            values[metric] = overhead_s
        elif metric == "trace.overhead_frac":
            values[metric] = _ratio(overhead_s, untraced_s)
        else:  # cells, nodes, bytes, rejected: counted at the boundary
            values[metric] = counts[metric]
    return values
