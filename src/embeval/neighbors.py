"""Exact top-k cosine neighborhoods with deterministic ordering and an on-disk cache.

Search is brute force on purpose: the evaluation metrics are set-membership
tests, and an approximate index could silently bias them.  Ties are broken
by ascending vocabulary index so repeated runs produce identical tables.
Under that order the top-k of a query is exactly the first k entries of its
top-K for any k <= K, so ``neighbor_map`` searches each query once at the
largest k a run needs and the metrics read prefixes.

``top_k`` scores one query with a matrix-vector product (GEMV) and returns
its ``(token, score)`` pairs in rank order.  ``top_k_batch`` scores a block of queries with one matrix
product (GEMM), whose scores can differ from the GEMV ones in the last
bits.  It keeps a query's GEMM order only where a rounding-error bound
proves that order is the GEMV one (see ``_certified``), and searches every
other query again by GEMV, so both give the same tokens.  The metrics read
only tokens, so a ``NeighborMap`` and the cache hold ordered token tuples
and no scores.
"""

import json
import logging
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import CacheFormatError, StaleCacheError, UnknownTokenError, ZeroVectorError
from .vectors import EmbeddingModel

logger = logging.getLogger(__name__)


@dataclass
class BatchResult:
    """The ``(query, tokens)`` of each queryable query in input order, and
    how many queries fell back to the GEMV search."""

    neighbor_sets: list[tuple[str, tuple[str, ...]]]
    fallbacks: int


@dataclass(frozen=True)
class NeighborMap:
    """Ordered neighbor tokens per query, searched at capacity ``k``.

    The top-k' of a query for any k' <= k is the first k' of its tokens.
    """

    k: int
    tokens: dict[str, tuple[str, ...]]

    def lowered(self) -> "NeighborMap":
        """This map with every neighbor token lowercased, at the same
        capacity.  A query whose neighbors are all lowercase keeps its own
        tuple, so lowercase tokens are not copied."""
        lowered = {}
        for query, tokens in self.tokens.items():
            lower = tuple(map(str.lower, tokens))
            lowered[query] = tokens if lower == tokens else lower
        return NeighborMap(self.k, lowered)


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


def _search(model: EmbeddingModel, query: str, k: int) -> list[tuple[str, float]]:
    row = model.index[query]
    unit = model.unit_matrix()
    scores = unit @ unit[row]
    scores[row] = -np.inf
    if model.zero_rows:
        scores[list(model.zero_rows)] = -np.inf
    return [(model.vocab[i], float(scores[i])) for i in _select_top(scores, k)]


def queryable(model: EmbeddingModel, token: str) -> bool:
    """Whether ``token`` has a neighborhood: it is in the vocabulary with a nonzero row."""
    row = model.index.get(token)
    return row is not None and row not in model.zero_rows


def top_k(model: EmbeddingModel, query: str, k: int) -> list[tuple[str, float]]:
    """Exact k nearest neighbors of ``query`` by cosine similarity, as
    ``(token, score)`` pairs ordered by (descending score, ascending index).

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


# delta: the product of the norms of two rows of ``unit_matrix`` is at most
# 1 + delta.  A computed unit row has norm 1 within about d units of
# roundoff, far below delta for any practical dimension d.
_NORM_SLACK = 2.0 ** -20


def _certified(ordered: np.ndarray, dim: int) -> np.ndarray:
    """Per row of GEMM scores in descending order: whether every adjacent gap
    exceeds ``2 * gamma(d + 2) * (1 + delta)``.

    ``gamma(n) = n*eps / (1 - n*eps)`` with ``eps = 2**-52``, twice the unit
    roundoff u, and ``delta = 2**-20``.  A dot product of two d-vectors
    computed in any summation order, with or without fused multiply-adds,
    lies within ``gamma_u(d) * sum(|x_i * y_i|)`` of the exact one (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section
    3.1), and that sum is at most ``|x| |y| <= 1 + delta`` for unit rows.
    So the GEMM and the GEMV score of one pair differ by at most
    ``2 * gamma_u(d) * (1 + delta) <= gamma(d + 2) * (1 + delta)``, and two
    GEMM scores further apart than twice that are in the same strict order
    as their GEMV scores.
    """
    n_eps = (dim + 2) * np.finfo(np.float64).eps
    bound = 2.0 * n_eps / (1.0 - n_eps) * (1.0 + _NORM_SLACK)
    return (ordered[:, :-1] - ordered[:, 1:] > bound).all(axis=1)


def top_k_batch(model: EmbeddingModel, queries: list[str], k: int) -> BatchResult:
    """The top-k tokens of each queryable query; unknown or zero-vector queries are skipped.

    Each block of ``max(1, dim // 8)`` queries is scored by one GEMM, so
    the score block and its index array each take at most an eighth of the
    bytes of the unit matrix (one query's scores when dim < 8).  A query's
    top K+1 candidates (all of them when there are fewer) are ordered by
    (score desc, index asc).  When ``_certified`` proves every adjacent gap
    among them, the GEMV search of ``top_k`` ranks the same first K
    candidates in the same order above every other row, so they are its
    top K.  Any other query, such as one with an exact tie, is searched by
    ``top_k`` itself.  The tokens are therefore those of ``top_k`` whatever
    the shape of the batch.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    wanted = [q for q in queries if queryable(model, q)]
    n = len(model)
    n_candidates = n - 1 - len(model.zero_rows)
    kk = min(k, n_candidates)
    if kk <= 0:
        return BatchResult([(q, ()) for q in wanted], fallbacks=0)
    m = min(k + 1, n_candidates)
    unit = model.unit_matrix()
    zero = np.fromiter(model.zero_rows, dtype=np.intp, count=len(model.zero_rows))
    rows = np.fromiter((model.index[q] for q in wanted), dtype=np.intp, count=len(wanted))
    block = max(1, model.dim // 8)
    neighbor_sets: list[tuple[str, tuple[str, ...]]] = []
    fallbacks = 0
    for start in range(0, len(wanted), block):
        block_rows = rows[start : start + block]
        scores = unit[block_rows] @ unit.T
        scores[np.arange(block_rows.size), block_rows] = -np.inf
        scores[:, zero] = -np.inf
        top = np.argpartition(scores, n - m, axis=1)[:, n - m :]
        top_scores = np.take_along_axis(scores, top, axis=1)
        order = np.lexsort((top, -top_scores), axis=1)
        top = np.take_along_axis(top, order, axis=1)
        certified = _certified(np.take_along_axis(top_scores, order, axis=1), model.dim)
        for query, idx, ok in zip(wanted[start : start + block], top[:, :kk].tolist(), certified):
            if ok:
                neighbor_sets.append((query, tuple(map(model.vocab.__getitem__, idx))))
            else:
                fallbacks += 1
                neighbor_sets.append((query, tuple(t for t, _ in _search(model, query, k))))
    return BatchResult(neighbor_sets, fallbacks)


def neighbor_map(model: EmbeddingModel, queries: list[str], k: int, cache_dir=None,
                 refresh: bool = False) -> NeighborMap:
    """Neighbor tokens at capacity >= k for exactly the queryable queries, each searched once.

    The map holds no other query, so a query is queryable exactly when it
    is in the map.  Any k' <= k is served by the first k' tokens.  With
    ``cache_dir`` the map goes through the model's cache file: a file of
    capacity >= k serves the call, restricted to the wanted queries; one
    of smaller capacity is rebuilt at k; and one built from a model file
    of another SHA-256, written in another format or lacking a needed
    query raises StaleCacheError unless ``refresh`` asks for a rebuild.  A
    search logs at debug level how many queries it certified and how many
    fell back to GEMV.
    """
    wanted = sorted(q for q in set(queries) if queryable(model, q))
    path = None if cache_dir is None else cache_path(cache_dir, model.name)
    if path is not None and os.path.exists(path) and not refresh:
        cached = cache_load(path, model, k)
        if cached is not None:
            missing = [q for q in wanted if q not in cached.tokens]
            if missing:
                raise StaleCacheError(
                    f"cache {path} lacks {len(missing)} needed queries "
                    f"(e.g. {missing[0]!r}); rerun with --refresh"
                )
            return NeighborMap(cached.k, {q: cached.tokens[q] for q in wanted})
    batch = top_k_batch(model, wanted, k)
    searched = len(batch.neighbor_sets)
    logger.debug(
        "%s: searched %d queries at k=%d: %d certified, %d fell back to GEMV",
        model.name, searched, k, searched - batch.fallbacks, batch.fallbacks,
    )
    result = NeighborMap(k, dict(batch.neighbor_sets))
    if path is not None:
        cache_store(path, model, result)
    return result


def cache_path(cache_dir, model_name: str) -> str:
    return os.path.join(os.fspath(cache_dir), f"{model_name}.neighbors.tsv")


def _cache_header(model: EmbeddingModel, k: int) -> dict:
    # "format" names the layout of the lines: the query, then its tokens
    return {"digest": model.source_digest, "dim": model.dim, "format": "tokens",
            "k": k, "model": model.name}


def cache_store(path, model: EmbeddingModel, neighbors: NeighborMap) -> None:
    """Persist a neighbor map, keyed by model name, the SHA-256 of the model's
    file and capacity.

    Each query is one line: the query, then its tokens in order,
    tab-separated; a query with an empty neighborhood is the query alone.
    Written atomically (temp file then rename) so a crashed run never
    leaves a half-valid cache behind.
    """
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        lines = [json.dumps(_cache_header(model, neighbors.k), sort_keys=True)]
        for query in sorted(neighbors.tokens):
            tokens = neighbors.tokens[query]
            if len(tokens) > neighbors.k:
                raise ValueError(
                    f"{len(tokens)} neighbors of {query!r} exceed the capacity {neighbors.k}"
                )
            lines.append("\t".join((query, *tokens)))
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, os.fspath(path))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cache_load(path, model: EmbeddingModel, k: int) -> NeighborMap | None:
    """The cached neighbor map at the file's capacity, or None when that is below k.

    Raises StaleCacheError when the file was built for another model name,
    a model file of another SHA-256 or in another format (such as the
    per-rank lines with scores that earlier versions wrote), and
    CacheFormatError for a malformed line.
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

    tokens: dict[str, tuple[str, ...]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        query, *neighbors = line.split("\t")
        error = None
        if not query or "" in neighbors:
            error = "empty field"
        elif query in tokens:
            error = f"query {query!r} repeated"
        elif len(neighbors) > capacity:
            error = f"{len(neighbors)} neighbors of {query!r} exceed the capacity {capacity}"
        elif query in neighbors:
            error = f"query {query!r} lists itself"
        if error is not None:
            raise CacheFormatError(error, line_no=line_no)
        tokens[query] = tuple(neighbors)
    return NeighborMap(capacity, tokens)
