"""In-memory spans around calls into the program's layers.

`instrument` rebinds the layer functions listed in `LAYER_CALLS`, wherever
the package has bound them, to wrappers that record one span per call, and
restores the originals on exit. Nothing in the package is edited. Pipeline
stage spans come from the caller, which runs a configured pipeline one stage
at a time, so each stage span is the parent of the layer calls it makes.
Counts are taken after a span closes, and the costly ones are deferred to
`Tracer.finish`, so they add little to any enclosing span.
"""
from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from oracle import tokenize

# (module, function, consumes an iterator the caller would consume later)
LAYER_CALLS = (
    ("corpus", "load_corpus", True),
    ("corpus", "load_topics", False),
    ("corpus", "load_qrels", False),
    ("sparse", "build_index", False),
    ("sparse", "save_index", False),
    ("sparse", "load_index", False),
    ("sparse", "bm25_search", False),
    ("dense", "load_embeddings", False),
    ("dense", "dense_search", False),
    ("runs", "read_run", False),
    ("runs", "write_run", False),
    ("fusion", "normalize_run", False),
    ("fusion", "fuse", False),
    ("fusion", "cut_pool", False),
    ("rerank", "build_pairs", True),
    ("rerank", "score_pairs", False),
    ("forge", "sample_negatives", False),
    ("forge", "sample_negatives_corpus", False),
    ("forge", "q2q2d_augment", False),
    ("forge", "pseudo_label", False),
    ("forge", "write_pairs", False),
    ("ensemble", "correlation_matrix", False),
    ("ensemble", "adjust_weights", False),
    ("ensemble", "ensemble_runs", False),
    ("metrics", "ndcg_at_k", False),
    ("metrics", "recall_at_k", False),
    ("validate", "validate_artifacts", False),
)
LAYERS = ("cli", "corpus", "tokenization", "sparse", "dense", "runs", "fusion", "rerank",
          "forge", "ensemble", "metrics", "pipeline", "validate")
PIPELINE_STAGES = ("index", "bm25", "dense", "fuse", "pool", "rerank", "eval")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._deferred: list = []
        self.hook_errors: list[str] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sp = Span(len(self.spans), name, self._stack[-1] if self._stack else None, 0.0, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def defer(self, fn) -> None:
        self._deferred.append(fn)

    def finish(self) -> None:
        for fn in self._deferred:
            self.guarded("deferred count", fn)
        self._deferred.clear()

    def guarded(self, name: str, fn, *args) -> None:
        """Run a counting hook; one that no longer fits the program's types
        is recorded as a hook error instead of breaking the traced call."""
        try:
            fn(*args)
        except Exception as exc:
            self.count("trace.hook_errors")
            self.hook_errors.append(f"{name}: {exc!r}")

    def self_times(self) -> dict[int, float]:
        child = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        return {sp.id: (sp.end - sp.start) - child[sp.id] for sp in self.spans}

    def records(self):
        for sp in self.spans:
            yield {"run_id": self.run_id, "id": sp.id, "name": sp.name, "parent": sp.parent,
                   "start": sp.start, "end": sp.end, **sp.attrs}


def _hooks(tracer: Tracer):
    """Count work done per call; each hook gets (args, kwargs, result)."""

    def bm25(a, kw, result):
        index, query = a[0], a[1]
        if not result:
            tracer.count("sparse.bm25_empty_queries")
        tracer.defer(lambda: tracer.count(
            "sparse.bm25_postings_scanned",
            sum(len(index.postings.get(t, ())) for t in set(tokenize(query, index.script_policy)))))

    def build(a, kw, index):
        tracer.defer(lambda: (tracer.count("sparse.index_terms", len(index.postings)),
                              tracer.count("sparse.index_postings", sum(map(len, index.postings.values())))))

    def load_embeddings(a, kw, store):
        tracer.count("dense.load_embeddings_bytes", os.path.getsize(a[0]))

    def dense_search(a, kw, result):
        docs = a[1]
        tracer.count("dense.search_flops", 2 * len(docs) * docs.dim)

    def fuse(a, kw, result):
        tracer.count("fusion.fuse_candidates", len(result))

    def build_pairs(a, kw, pairs):
        tracer.count("rerank.pairs", len(pairs))
        tracer.defer(lambda: tracer.count(
            "rerank.truncated_pairs", sum(len(tokenize(p.text)) > p.truncation_budget for p in pairs)))

    def forge(a, kw, pairs):
        tracer.count("forge.pairs_out", len(pairs))

    def skipped(a, kw, report):
        tracer.count("metrics.skipped_queries", report.skipped_queries)

    return {
        "sparse.bm25_search": bm25,
        "sparse.build_index": build,
        "dense.load_embeddings": load_embeddings,
        "dense.dense_search": dense_search,
        "runs.read_run": lambda a, kw, run: tracer.count("runs.lines", len(run)),
        "runs.write_run": lambda a, kw, _: tracer.count("runs.lines", len(a[0])),
        "fusion.fuse": fuse,
        "rerank.build_pairs": build_pairs,
        "forge.sample_negatives": forge,
        "forge.sample_negatives_corpus": forge,
        "forge.q2q2d_augment": forge,
        "forge.pseudo_label": forge,
        "metrics.ndcg_at_k": skipped,
        "metrics.recall_at_k": skipped,
    }


def _wrap(tracer: Tracer, name: str, fn, eager: bool, hook):
    layer = name.split(".", 1)[0]

    scoring = name == "rerank.score_pairs"

    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            except Exception:
                tracer.count(f"{layer}.errors")
                raise
        if scoring:  # per-pair cost is reported per scorer kind
            tracer.guarded(name, lambda: sp.attrs.update(
                kind=(args[1] if len(args) > 1 else kwargs["scorer"]).kind, pairs=len(result)))
        if hook is not None:
            tracer.guarded(name, hook, args, kwargs, result)
        return iter(result) if eager else result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Record a span for every call listed in LAYER_CALLS that the package
    still defines, and restore the package on exit."""
    import rankpipe.cli  # noqa: F401  (binds every module the CLI reaches)

    hooks = _hooks(tracer)
    modules = [m for n, m in list(sys.modules.items()) if n == "rankpipe" or n.startswith("rankpipe.")]
    restore: list[tuple[object, str, object]] = []
    for module_name, fn_name, eager in LAYER_CALLS:
        original = getattr(sys.modules.get(f"rankpipe.{module_name}"), fn_name, None)
        if original is None:
            continue
        name = f"{module_name}.{fn_name}"
        wrapper = _wrap(tracer, name, original, eager, hooks.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(restore):
            setattr(module, attr, value)


def probe_tokenization(tracer: Tracer, texts: list[str]) -> None:
    """Auto-policy detection and tokenization over the workload's passages,
    one span per call."""
    from rankpipe import tokenization

    for text in texts:
        with tracer.span("tokenization.detect_policy"):
            tokenization.detect_policy(text)
        with tracer.span("tokenization.tokenize"):
            tokenization.tokenize(text, tokenization.AUTO)


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tracer: Tracer, handshake_s: float | None = None) -> dict[str, float | None]:
    """Per-layer metrics from spans and counts; None where the workload
    made no such call. ``handshake_s``, the scorer's launch-to-READY time,
    is taken out of the external scorer's per-pair cost."""
    tracer.finish()
    self_time = tracer.self_times()
    by_name: dict[str, list[Span]] = defaultdict(list)
    for sp in tracer.spans:
        by_name[sp.name].append(sp)

    def self_s(name: str) -> float | None:
        spans = by_name.get(name)
        return sum(self_time[sp.id] for sp in spans) if spans else None

    def durations_ms(name: str) -> list[float]:
        return [1000 * (sp.end - sp.start) for sp in by_name.get(name, [])]

    c = tracer.counts
    out: dict[str, float | None] = {}
    for module_name, fn_name, _ in LAYER_CALLS:
        out[f"{module_name}.{fn_name}_s"] = self_s(f"{module_name}.{fn_name}")
    for fn_name in ("detect_policy", "tokenize"):
        out[f"tokenization.{fn_name}_s"] = self_s(f"tokenization.{fn_name}")
    for stage in PIPELINE_STAGES:
        out[f"pipeline.{stage}_s"] = self_s(f"pipeline.{stage}")

    out["sparse.index_terms"] = c["sparse.index_terms"]
    out["sparse.index_postings"] = c["sparse.index_postings"]
    for leg, name in (("bm25", "sparse.bm25_search"), ("search", "dense.dense_search")):
        layer = name.split(".")[0]
        ms = durations_ms(name)
        out[f"{layer}.{leg}_ms_p50"] = _quantile(ms, 0.50) if ms else None
        out[f"{layer}.{leg}_ms_p95"] = _quantile(ms, 0.95) if ms else None
    out["sparse.bm25_postings_scanned"] = c["sparse.bm25_postings_scanned"]
    out["sparse.bm25_empty_queries"] = c["sparse.bm25_empty_queries"]
    load_s = sum(sp.end - sp.start for sp in by_name.get("dense.load_embeddings", []))
    out["dense.load_embeddings_mb_per_s"] = c["dense.load_embeddings_bytes"] / 1e6 / load_s if load_s else None
    out["dense.search_flops"] = c["dense.search_flops"]
    out["runs.lines"] = c["runs.lines"]
    out["fusion.fuse_candidates"] = c["fusion.fuse_candidates"]

    pairs = c["rerank.pairs"]
    out["rerank.pairs"] = pairs
    out["rerank.truncated_share"] = c["rerank.truncated_pairs"] / pairs if pairs else 0.0
    for kind, metric in (("lexical_baseline", "lexical"), ("external_process", "external")):
        spans = [sp for sp in by_name.get("rerank.score_pairs", []) if sp.attrs.get("kind") == kind]
        scored = sum(sp.attrs.get("pairs", 0) for sp in spans)
        secs = sum(sp.end - sp.start for sp in spans)
        if kind == "external_process" and handshake_s is not None:
            secs -= handshake_s * len(spans)
        out[f"rerank.{metric}_us_per_pair"] = 1e6 * secs / scored if scored else None
    out["rerank.external_handshake_s"] = handshake_s
    out["forge.pairs_out"] = c["forge.pairs_out"]
    out["metrics.skipped_queries"] = c["metrics.skipped_queries"]
    for layer in LAYERS:
        out[f"{layer}.errors"] = c[f"{layer}.errors"]
    out["trace.hook_errors"] = c["trace.hook_errors"]
    return out
