"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the ``embeval`` modules by timing
wrappers, assigning module (or class) attributes, and puts everything back
when it is closed.  A function imported by name into another module
(``from .vectors import load_vec`` in ``cli``) is replaced wherever the
same object is bound, so the call sites need no change.  A target that no
longer exists is reported as missing instead of failing the run.

Spans are kept in memory as tuples
``(name, start, end, parent_index, command_id, probe)``; the probe is a
small value computed from the call's arguments and result after the clock
stopped (bytes read, a cache key, a hit flag).
"""

import importlib
import os
import sys
import time
from collections import defaultdict


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _best_match_probe(args, kwargs, result):
    token, vocab, s = _arg(args, kwargs, 0, "token"), _arg(args, kwargs, 1, "vocab"), _arg(args, kwargs, 2, "s")
    return (s, token in vocab.position, result is not None)


def _batch_probe(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    return (len(result.neighbor_sets), len(model), model.dim)


def _top_k_probe(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    return ((model.name, _arg(args, kwargs, 1, "query"), _arg(args, kwargs, 2, "k")), len(model), model.dim)


# (span name, module, attribute, probe).  Several attributes may share a span name.
TARGETS = [
    ("vectors.load_vec", "embeval.vectors", "load_vec", lambda a, k, r: _size(_arg(a, k, 0, "source"))),
    ("vectors.unit_matrix", "embeval.vectors", "EmbeddingModel.unit_matrix", None),
    ("report.sha256_file", "embeval.report", "sha256_file", lambda a, k, r: _size(_arg(a, k, 0, "path"))),
    ("report.write", "embeval.report", "write_csv", None),
    ("report.write", "embeval.report", "markdown_table", None),
    ("report.write", "embeval.report", "RunManifest.write", None),
    ("thesaurus.parse", "embeval.thesaurus", "parse_ntriples_skos", None),
    ("thesaurus.keywords", "embeval.thesaurus", "keywords", None),
    ("thesaurus.descriptor_pairs", "embeval.thesaurus", "descriptor_pairs", None),
    ("stringsim.vocab_index", "embeval.stringsim", "VocabIndex.__init__", None),
    ("stringsim.best_match", "embeval.stringsim", "best_match", _best_match_probe),
    ("neighbors.top_k_batch", "embeval.neighbors", "top_k_batch", _batch_probe),
    ("neighbors.top_k", "embeval.neighbors", "top_k", _top_k_probe),
    ("neighbors.cache_store", "embeval.neighbors", "cache_store", lambda a, k, r: _size(_arg(a, k, 0, "path"))),
    ("neighbors.cache_load", "embeval.neighbors", "cache_load", lambda a, k, r: _size(_arg(a, k, 0, "path"))),
    ("metrics.coverage", "embeval.metrics", "coverage", None),
    ("metrics.diversity_matrix", "embeval.metrics", "diversity_matrix", None),
    ("metrics.relational_coverage", "embeval.metrics", "relational_coverage", None),
    ("corpus.run_pipeline", "embeval.corpus", "run_pipeline", None),
    ("corpus.clean_document", "embeval.corpus", "clean_document", None),
    ("corpus.split_camel_case", "embeval.corpus", "split_camel_case", None),
    ("corpus.numbers_to_words", "embeval.corpus", "numbers_to_words", None),
    ("corpus.tokenize", "embeval.corpus", "tokenize", None),
    ("corpus.dedup_sentences", "embeval.corpus", "dedup_sentences",
     lambda a, k, r: (r[1].kept, r[1].dropped)),
    ("langid.classify_line_language", "embeval.langid", "classify_line_language",
     lambda a, k, r: r[0] == "unknown"),
    ("numwords.number_to_words", "embeval.numwords", "number_to_words", None),
]


class Tracer:
    """Installs the wrappers, records spans, and restores the originals on close."""

    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self.command = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> None:
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items()) if n == "embeval" or n.startswith("embeval.")]
        for name, module, attr, probe in targets:
            try:
                owner = importlib.import_module(module)
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[last] if isinstance(owner, type) else getattr(owner, last)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(original, name, probe)
            if isinstance(owner, type):
                self._restore.append((owner, last, original))
                setattr(owner, last, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def close(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, fn, name, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.command, None)
                raise
            end = clock()
            stack.pop()
            spans[sid] = (name, start, end, parent, self.command, probe(args, kwargs, result) if probe else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_command(self, fn):
        """Run ``fn()`` as the root span ``cli`` of a new command id and return its result."""
        self.command += 1
        return self._wrap(fn, "cli", None)()


def command_totals(spans, commands: int) -> list[dict]:
    """Per command id, per span name: calls, total and self seconds, and (seconds, probe) pairs."""
    child = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: list[dict] = [{} for _ in range(commands)]
    for i, (name, start, end, parent, command, probe) in enumerate(spans):
        rec = out[command].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "probes": []})
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += end - start - child[i]
        if probe is not None:
            rec["probes"].append((end - start, probe))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics with their units and better direction; the traced run reports
# exactly these, with 0 for a layer the workload never enters.
PER_LAYER = [
    ("vectors.load_vec.s", "s", "lower"),
    ("vectors.load_vec.mb_per_s", "MB/s", "higher"),
    ("vectors.unit_matrix.s", "s", "lower"),
    ("report.sha256_file.s", "s", "lower"),
    ("report.sha256_file.mb", "MB", "lower"),
    ("report.write.s", "s", "lower"),
    ("thesaurus.parse.s", "s", "lower"),
    ("thesaurus.keywords.s", "s", "lower"),
    ("thesaurus.descriptor_pairs.s", "s", "lower"),
    ("stringsim.vocab_index.s", "s", "lower"),
    ("stringsim.best_match.calls", "count", "lower"),
    ("stringsim.best_match.s", "s", "lower"),
    ("stringsim.best_match.ms_per_call.s090", "ms", "lower"),
    ("stringsim.best_match.ms_per_call.s095", "ms", "lower"),
    ("stringsim.best_match.ms_per_call.s100", "ms", "lower"),
    ("stringsim.best_match.hit_ratio", "ratio", "higher"),
    ("stringsim.exact_hit_ratio", "ratio", "higher"),
    ("neighbors.top_k_batch.s", "s", "lower"),
    ("neighbors.top_k_batch.queries", "count", "lower"),
    ("neighbors.top_k_batch.ms_per_query", "ms", "lower"),
    ("neighbors.top_k.s", "s", "lower"),
    ("neighbors.top_k.calls", "count", "lower"),
    ("neighbors.top_k.distinct_ratio", "ratio", "higher"),
    ("neighbors.score_gflops", "GFLOP/s", "higher"),
    ("machine.gemm_gflops", "GFLOP/s", "higher"),
    ("neighbors.cache_store.s", "s", "lower"),
    ("neighbors.cache_store.bytes", "bytes", "lower"),
    ("neighbors.cache_load.s", "s", "lower"),
    ("neighbors.cache_load.bytes", "bytes", "lower"),
    ("metrics.coverage.self_s", "s", "lower"),
    ("metrics.diversity_matrix.self_s", "s", "lower"),
    ("metrics.relational_coverage.self_s", "s", "lower"),
    ("corpus.clean_document.self_s", "s", "lower"),
    ("corpus.split_camel_case.s", "s", "lower"),
    ("corpus.numbers_to_words.s", "s", "lower"),
    ("corpus.tokenize.s", "s", "lower"),
    ("corpus.dedup_sentences.s", "s", "lower"),
    ("corpus.dedup_sentences.drop_ratio", "ratio", "higher"),
    ("corpus.run_pipeline.self_s", "s", "lower"),
    ("langid.classify_line_language.s", "s", "lower"),
    ("langid.classify_line_language.calls", "count", "lower"),
    ("langid.unknown_ratio", "ratio", "lower"),
    ("numwords.number_to_words.s", "s", "lower"),
    ("numwords.number_to_words.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.missing_targets", "count", "lower"),
]


def layer_metrics(totals: dict) -> dict[str, float]:
    """The per-layer metrics of one traced command, from its ``command_totals``.

    ``neighbors.score_gflops`` is a computed count: 2 * vocabulary * dim
    floating-point operations per searched query (one matrix-vector
    product), divided by the self time of the search spans.
    """
    def get(name, key="s"):
        return totals.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    def timed(name):
        return totals.get(name, {}).get("probes", [])

    def probes(name):
        return [p for _, p in timed(name)]

    m: dict[str, float] = {}
    for name in ("vectors.load_vec", "vectors.unit_matrix", "report.sha256_file", "report.write",
                 "thesaurus.parse", "thesaurus.keywords", "thesaurus.descriptor_pairs",
                 "stringsim.vocab_index", "stringsim.best_match", "neighbors.top_k_batch",
                 "neighbors.top_k", "neighbors.cache_store", "neighbors.cache_load",
                 "corpus.split_camel_case", "corpus.numbers_to_words", "corpus.tokenize",
                 "corpus.dedup_sentences", "langid.classify_line_language", "numwords.number_to_words"):
        m[f"{name}.s"] = get(name)
    for name in ("metrics.coverage", "metrics.diversity_matrix", "metrics.relational_coverage",
                 "corpus.clean_document", "corpus.run_pipeline", "cli"):
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("stringsim.best_match", "neighbors.top_k", "langid.classify_line_language",
                 "numwords.number_to_words"):
        m[f"{name}.calls"] = get(name, "calls")

    m["vectors.load_vec.mb_per_s"] = _ratio(sum(probes("vectors.load_vec")) / 1e6, get("vectors.load_vec"))
    m["report.sha256_file.mb"] = sum(probes("report.sha256_file")) / 1e6
    m["neighbors.cache_store.bytes"] = sum(probes("neighbors.cache_store"))
    m["neighbors.cache_load.bytes"] = sum(probes("neighbors.cache_load"))

    bm = probes("stringsim.best_match")
    m["stringsim.best_match.hit_ratio"] = _ratio(sum(p[2] for p in bm), len(bm))
    m["stringsim.exact_hit_ratio"] = _ratio(sum(p[1] for p in bm), len(bm))
    for label, s in (("s090", 0.9), ("s095", 0.95), ("s100", 1.0)):
        times = [t for t, p in timed("stringsim.best_match") if p[0] == s]
        m[f"stringsim.best_match.ms_per_call.{label}"] = _ratio(1e3 * sum(times), len(times))

    batch = probes("neighbors.top_k_batch")
    queries = sum(p[0] for p in batch)
    m["neighbors.top_k_batch.queries"] = queries
    m["neighbors.top_k_batch.ms_per_query"] = _ratio(1e3 * get("neighbors.top_k_batch"), queries)
    single = probes("neighbors.top_k")
    m["neighbors.top_k.distinct_ratio"] = _ratio(len({p[0] for p in single}), len(single))
    flops = sum(2.0 * q * n * d for q, n, d in batch) + sum(2.0 * n * d for _, n, d in single)
    search_s = get("neighbors.top_k_batch", "self_s") + get("neighbors.top_k", "self_s")
    m["neighbors.score_gflops"] = _ratio(flops / 1e9, search_s)

    dedup = probes("corpus.dedup_sentences")
    m["corpus.dedup_sentences.drop_ratio"] = _ratio(sum(p[1] for p in dedup), sum(p[0] + p[1] for p in dedup))
    langid = probes("langid.classify_line_language")
    m["langid.unknown_ratio"] = _ratio(sum(langid), len(langid))
    return m
