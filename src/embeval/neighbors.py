"""Exact top-k cosine neighborhoods with deterministic ordering and an on-disk cache.

Search is brute force on purpose: the evaluation metrics are set-membership
tests, and an approximate index could silently bias them.  Ties are broken
by ascending vocabulary index so repeated runs produce identical tables.
Under that order the top-k of a query is exactly the first k entries of its
top-K for any k <= K, so ``neighbor_map`` searches each query once at the
largest k a run needs and the metrics read prefixes.
"""

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import CacheFormatError, StaleCacheError, UnknownTokenError, ZeroVectorError
from .vectors import _MIN_DIRECT_NORM, EmbeddingModel


@dataclass(frozen=True)
class NeighborSet:
    """Ordered top-k cosine neighborhood of one query word in one model."""

    query: str
    k_requested: int
    model_name: str
    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if len(self.entries) > self.k_requested:
            raise ValueError("more entries than requested")
        previous = None
        for token, score in self.entries:
            if token == self.query:
                raise ValueError("query token appears in its own neighborhood")
            if previous is not None and score > previous:
                raise ValueError("scores are not non-increasing")
            previous = score

    def tokens(self) -> list[str]:
        return [t for t, _ in self.entries]


@dataclass
class BatchResult:
    """Per-query neighbor sets plus the queries that had to be skipped."""

    neighbor_sets: list[NeighborSet]
    skipped: list[str]

    def by_query(self) -> dict[str, NeighborSet]:
        return {ns.query: ns for ns in self.neighbor_sets}


def cosine(u, v) -> float:
    """Cosine similarity of two equal-length, nonzero vectors, clamped to [-1, 1].

    When a norm is subnormal-prone or overflows, or the dot product or the
    product of the norms overflows, each vector is first divided by its
    largest absolute component, as ``unit_matrix`` does for such rows.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"vector shapes differ: {u.shape} vs {v.shape}")
    if not u.any() or not v.any():
        raise ZeroVectorError("cosine is undefined for all-zero vectors")
    with np.errstate(over="ignore"):
        nu = float(np.linalg.norm(u))
        nv = float(np.linalg.norm(v))
        dot = float(np.dot(u, v))
    if not (min(nu, nv) >= _MIN_DIRECT_NORM and np.isfinite([nu * nv, dot]).all()):
        u = u / np.abs(u).max()
        v = v / np.abs(v).max()
        nu = float(np.linalg.norm(u))
        nv = float(np.linalg.norm(v))
        dot = float(np.dot(u, v))
    return min(1.0, max(-1.0, dot / (nu * nv)))


def normalize_rows(model: EmbeddingModel) -> EmbeddingModel:
    """Copy of the model with unit-length rows; zero rows stay zero and are flagged."""
    unit = np.array(model.unit_matrix())
    return EmbeddingModel(
        name=model.name,
        dim=model.dim,
        vocab=list(model.vocab),
        matrix=unit,
        normalized=True,
        zero_rows=model.zero_rows,
        source_digest=model.source_digest,
    )


def _select_top(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best scores, ordered by (descending score, ascending index).

    Exact also under ties: argpartition fixes the boundary score, then every
    index strictly above it is taken and the remaining slots are filled with
    the lowest indices at the boundary score.
    """
    n_candidates = int(np.count_nonzero(scores > -np.inf))
    kk = min(k, n_candidates)
    if kk == 0:
        return np.empty(0, dtype=np.intp)
    if kk < len(scores):
        part = np.argpartition(-scores, kk - 1)[:kk]
        boundary = scores[part].min()
        above = np.flatnonzero(scores > boundary)
        at_boundary = np.flatnonzero(scores == boundary)
        chosen = np.concatenate([above, at_boundary[: kk - above.size]])
    else:
        chosen = np.flatnonzero(scores > -np.inf)
    order = np.lexsort((chosen, -scores[chosen]))
    return chosen[order]


def _query_scores(model: EmbeddingModel, row: int) -> np.ndarray:
    unit = model.unit_matrix()
    scores = unit @ unit[row]
    scores[row] = -np.inf
    if model.zero_rows:
        scores[list(model.zero_rows)] = -np.inf
    return scores


def _search(model: EmbeddingModel, query: str, k: int) -> NeighborSet:
    scores = _query_scores(model, model.index[query])
    idx = _select_top(scores, k)
    entries = tuple((model.vocab[i], float(scores[i])) for i in idx)
    return NeighborSet(query, k, model.name, entries)


def queryable(model: EmbeddingModel, token: str) -> bool:
    """Whether ``token`` has a neighborhood: it is in the vocabulary with a nonzero row."""
    row = model.index.get(token)
    return row is not None and row not in model.zero_rows


def top_k(model: EmbeddingModel, query: str, k: int) -> NeighborSet:
    """Exact k nearest neighbors of ``query`` by cosine similarity.

    The query itself and zero-vector rows are excluded from the candidates.
    Raises UnknownTokenError for out-of-vocabulary queries and ZeroVectorError
    when the query row is all zeros.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    row = model.index.get(query)
    if row is None:
        raise UnknownTokenError(f"token {query!r} not in model {model.name!r}")
    if row in model.zero_rows:
        raise ZeroVectorError(f"query {query!r} has a zero vector in {model.name!r}")
    return _search(model, query, k)


def top_k_batch(model: EmbeddingModel, queries: list[str], k: int) -> BatchResult:
    """Elementwise top_k over many queries; unknown or zero-vector queries are skipped.

    Results are in input order.  Every query is scored by the same
    matrix-vector product as top_k, so the result is bitwise identical to
    top_k whatever the shape of the batch.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    neighbor_sets = [_search(model, q, k) for q in queries if queryable(model, q)]
    skipped = [q for q in queries if not queryable(model, q)]
    return BatchResult(neighbor_sets=neighbor_sets, skipped=skipped)


def neighbor_map(model: EmbeddingModel, queries: list[str], k: int, cache_dir=None,
                 refresh: bool = False) -> dict[str, NeighborSet]:
    """Neighbor sets of capacity >= k for every queryable query, each searched once.

    Any k' <= k is served by the first k' entries.  With ``cache_dir`` the
    map goes through the model's cache file: a file of capacity >= k serves
    the call, one of smaller capacity is rebuilt at k, and one built for
    other vectors or lacking a needed query raises StaleCacheError unless
    ``refresh`` asks for a rebuild.
    """
    wanted = sorted(q for q in set(queries) if queryable(model, q))
    if cache_dir is None:
        return top_k_batch(model, wanted, k).by_query()
    path = cache_path(cache_dir, model.name)
    cached = cache_load(path, model, k) if os.path.exists(path) and not refresh else None
    if cached is not None:
        missing = [q for q in wanted if q not in cached]
        if missing:
            raise StaleCacheError(
                f"cache {path} lacks {len(missing)} needed queries "
                f"(e.g. {missing[0]!r}); rerun with --refresh"
            )
        return cached
    result = top_k_batch(model, wanted, k).by_query()
    cache_store(path, model, k, result.values())
    return result


def cache_path(cache_dir, model_name: str) -> str:
    return os.path.join(os.fspath(cache_dir), f"{model_name}.neighbors.tsv")


def _cache_header(model: EmbeddingModel, k: int) -> dict:
    return {"digest": model.content_digest(), "dim": model.dim, "k": k, "model": model.name}


def cache_store(path, model: EmbeddingModel, k: int, neighbor_sets) -> None:
    """Persist neighbor sets searched at capacity k, keyed by model name and content digest.

    A query with an empty neighborhood is recorded as the line ``query TAB 0``
    so that a later run finds it.  Written atomically (temp file then
    rename) so a crashed run never leaves a half-valid cache behind.
    """
    sets = sorted(neighbor_sets, key=lambda ns: ns.query)
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(_cache_header(model, k), sort_keys=True) + "\n")
            for ns in sets:
                if ns.model_name != model.name or ns.k_requested != k:
                    raise ValueError(
                        f"neighbor set for {ns.query!r} does not belong to "
                        f"({model.name!r}, k={k})"
                    )
                if not ns.entries:
                    fh.write(f"{ns.query}\t0\n")
                for rank, (token, score) in enumerate(ns.entries, start=1):
                    fh.write(f"{ns.query}\t{rank}\t{token}\t{score:.9f}\n")
        os.replace(tmp, os.fspath(path))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cache_load(path, model: EmbeddingModel, k: int) -> dict[str, NeighborSet] | None:
    """Cached neighbor sets at the file's capacity, or None when that is below k.

    Raises StaleCacheError when the file was built for another model or
    other vectors.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CacheFormatError("empty cache file", line_no=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CacheFormatError(f"bad cache header: {exc}", line_no=1) from None
    capacity = header.get("k") if isinstance(header, dict) else None
    if type(capacity) is not int or capacity < 0:
        raise CacheFormatError("cache header lacks a capacity k", line_no=1)
    expected = _cache_header(model, capacity)
    if header != expected:
        raise StaleCacheError(
            f"cache at {os.fspath(path)} was built for {header}, need {expected}; "
            "rerun with --refresh to rebuild"
        )
    if capacity < k:
        return None

    by_query: dict[str, list[tuple[str, float]]] = {}
    empty: set[str] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if parts[1:] == ["0"] and parts[0] not in by_query:
            by_query[parts[0]] = []
            empty.add(parts[0])
            continue
        if len(parts) != 4:
            raise CacheFormatError("expected 4 tab-separated fields", line_no=line_no)
        query, rank_s, token, score_s = parts
        entries = by_query.setdefault(query, [])
        try:
            rank = int(rank_s)
            score = float(score_s)
        except ValueError:
            raise CacheFormatError("unparseable rank or score", line_no=line_no) from None
        if rank != len(entries) + 1 or rank > capacity or query in empty:
            raise CacheFormatError(
                f"rank {rank} out of order or above capacity for query {query!r}",
                line_no=line_no,
            )
        entries.append((token, score))
    return {
        q: NeighborSet(q, capacity, model.name, tuple(entries))
        for q, entries in by_query.items()
    }
