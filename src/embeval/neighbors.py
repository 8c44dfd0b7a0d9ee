"""Exact top-k cosine neighborhoods with deterministic ordering and an on-disk cache.

Search is brute force on purpose: the evaluation metrics are set-membership
tests, and an approximate index could silently bias them.  Neighbors are
ordered by (descending score, ascending vocabulary index), where a score is
the exact dot product of two unit rows rounded once, so every machine ranks
alike.  The top-k of a query is then the first k of its top-K for any
k <= K, so ``neighbor_map`` searches each query once at the largest k a run
needs, and a ``NeighborMap`` and the cache hold ordered tokens, no scores.
"""

import json
import logging
import math
import os
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CacheFormatError, UnknownTokenError, ZeroVectorError, parse_file
from .vectors import EmbeddingModel

logger = logging.getLogger(__name__)


@dataclass
class BatchResult:
    """The ``(query, tokens)`` of each queryable query in input order, how
    many queries were re-ranked exactly, and over how many boundary rows."""

    neighbor_sets: list[tuple[str, tuple[str, ...]]]
    reranked: int
    boundary_rows: int


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


def queryable(model: EmbeddingModel, token: str) -> bool:
    """Whether ``token`` has a neighborhood: it is in the vocabulary with a nonzero row."""
    row = model.index.get(token)
    return row is not None and row not in model.zero_rows


def top_k(model: EmbeddingModel, query: str, k: int) -> list[tuple[str, float]]:
    """Exact k nearest neighbors of ``query`` by cosine similarity, as
    ``(token, score)`` pairs in the neighbor order, with exact scores.

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
    idx = next(_ranked(model, [row], k))[0].tolist()
    return list(zip(map(model.vocab.__getitem__, idx), _exact_scores(model.unit_matrix(), row, idx)))


def top_k_batch(model: EmbeddingModel, queries: list[str], k: int) -> BatchResult:
    """The top-k tokens of each queryable query, as ``top_k`` ranks them;
    unknown or zero-vector queries are skipped."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    wanted = [q for q in queries if queryable(model, q)]
    rows = [model.index[q] for q in wanted]
    ranked = [(tuple(map(model.vocab.__getitem__, idx.tolist())), b) for idx, b in _ranked(model, rows, k)]
    boundaries = [b for _, b in ranked if b]
    return BatchResult([(q, t) for q, (t, _) in zip(wanted, ranked)], len(boundaries), sum(boundaries))


def _ranked(model: EmbeddingModel, rows: list[int], k: int) -> Iterator[tuple[np.ndarray, int]]:
    """Per query row: the indices of its top k in the neighbor order, and
    the number of boundary rows it was re-ranked over (0 when certified).

    Each block of ``max(1, dim // 8)`` queries is scored by one GEMM, which
    takes at most an eighth of the bytes of the unit matrix.  Each query's
    top K+1 is selected from its own score row, so the search holds one
    block's scores and one row's indices.  A query's top K+1 GEMM scores in
    (score desc, index asc) order give its top K where ``_certified``.
    Otherwise K rows beat every row scoring below its K-th minus
    ``_gap_bound``, so only the rows above that are scored exactly.
    """
    n = len(model)
    n_candidates = n - 1 - len(model.zero_rows)
    # one column at least, so that a query without candidates certifies ()
    kk, m = min(k, n_candidates), max(1, min(k + 1, n_candidates))
    unit = model.unit_matrix()
    zero = np.fromiter(model.zero_rows, dtype=np.intp, count=len(model.zero_rows))
    block = max(1, model.dim // 8)
    for start in range(0, len(rows), block):
        block_rows = rows[start : start + block]
        scores = unit[block_rows] @ unit.T
        scores[np.arange(len(block_rows)), block_rows] = -np.inf
        scores[:, zero] = -np.inf
        top = np.empty((len(block_rows), m), dtype=np.intp)
        for i in range(len(block_rows)):
            top[i] = np.argpartition(scores[i], n - m)[n - m :]
        top_scores = np.take_along_axis(scores, top, axis=1)
        order = np.lexsort((top, -top_scores), axis=1)
        top = np.take_along_axis(top, order, axis=1)[:, :kk]
        ordered = np.take_along_axis(top_scores, order, axis=1)
        certified = _certified(ordered, model.dim)
        for row, idx, gemm, kth, ok in zip(block_rows, top, scores, ordered[:, kk - 1], certified):
            if ok:
                yield idx, 0
                continue
            boundary = np.flatnonzero(gemm >= kth - _gap_bound(model.dim)).tolist()
            exact = _exact_scores(unit, row, boundary)
            ranked = sorted(zip(exact, boundary), key=lambda pair: (-pair[0], pair[1]))
            yield np.array([i for _, i in ranked[:kk]], dtype=np.intp), len(boundary)
        # ``gemm`` is a view of ``scores``: neither may keep this block alive
        # while the next one is scored and partitioned
        del gemm, scores


# delta: the product of the norms of two rows of ``unit_matrix`` is at most
# 1 + delta.  A computed unit row has norm 1 within about d units of
# roundoff, far below delta for any practical dimension d.
_NORM_SLACK = 2.0 ** -20


def _gap_bound(dim: int) -> float:
    n_eps = (dim + 2) * np.finfo(np.float64).eps
    return 2.0 * n_eps / (1.0 - n_eps) * (1.0 + _NORM_SLACK)


def _certified(ordered: np.ndarray, dim: int) -> np.ndarray:
    """Per row of GEMM scores in descending order: whether every adjacent gap
    exceeds ``2 * gamma(d + 2) * (1 + delta)``, which makes it the exact order.

    ``gamma(n) = n*eps / (1 - n*eps)``, ``eps = 2**-52 = 2u``, ``delta = 2**-20``.
    In any summation order, with or without fused multiply-adds, a dot
    product of unit d-rows is within ``gamma_u(d) * (1 + delta)``, a quarter
    of the bound, of the exact one (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., section 3.1).  So a gap above the bound
    keeps two exact scores over ``3 * 2**-52`` apart, in order once rounded.
    """
    return (ordered[:, :-1] - ordered[:, 1:] > _gap_bound(dim)).all(axis=1)


# Veltkamp's 2**27 + 1 splits a double into halves of at most 26 bits.
_SPLIT, _SLICE = 134217729.0, 512


def _exact_scores(unit: np.ndarray, row: int, candidates: list[int]) -> list[float]:
    """The exact dot product of unit row ``row`` with each candidate row, rounded once.

    TwoProduct (Dekker's; Ogita, Rump and Oishi, "Accurate sum and dot
    product", SISC 2005) writes each product as two floats, and ``math.fsum``
    rounds their exact sum correctly.  The loader flushes unit components
    below 2**-484 to zero, so every product TwoProduct forms is a multiple
    of 2**-1072 and exact.  ``_SLICE`` rows at a time bound the temporaries.
    """
    x = unit[row]
    hx = _SPLIT * x - (_SPLIT * x - x)
    lx = x - hx
    scores: list[float] = []
    for start in range(0, len(candidates), _SLICE):
        y = unit[candidates[start : start + _SLICE]]
        p = y * x
        hy = _SPLIT * y - (_SPLIT * y - y)
        ly = y - hy
        e = lx * ly - (((p - hx * hy) - lx * hy) - hx * ly)
        scores += [math.fsum(terms) for terms in np.hstack((p, e)).tolist()]
    return scores


def neighbor_map(model: EmbeddingModel, queries: list[str], k: int, cache_dir=None) -> NeighborMap:
    """Neighbor tokens at capacity >= k for exactly the queryable queries, each searched once.

    The map holds no other query, so a query is queryable exactly when it
    is in the map.  Any k' <= k is served by the first k' tokens.  With
    ``cache_dir`` the map goes through the model's cache file: a file that
    ``cache_load`` returns serves the queries it holds, and only the
    missing ones are searched, at the file's capacity, and added to it.
    Any other well-formed file is searched again at k and overwritten.  A
    malformed file raises CacheFormatError naming it.  A search logs at
    debug level how many queries it certified and how many it re-ranked
    exactly, over how many boundary rows.
    """
    wanted = sorted(q for q in set(queries) if queryable(model, q))
    path = None if cache_dir is None else cache_path(cache_dir, model.name)
    exists = path is not None and os.path.exists(path)
    held = (parse_file(cache_load, path, model, k) if exists else None) or NeighborMap(k, {})
    missing = [q for q in wanted if q not in held.tokens]
    if missing:
        if exists:
            logger.debug("%s: rebuilding %s at k=%d", model.name, path, held.k)
        batch = top_k_batch(model, missing, held.k)
        searched = len(batch.neighbor_sets)
        logger.debug(
            "%s: searched %d queries at k=%d: %d certified, %d re-ranked exactly over %d boundary rows",
            model.name, searched, held.k, searched - batch.reranked, batch.reranked, batch.boundary_rows,
        )
        held = NeighborMap(held.k, {**held.tokens, **dict(batch.neighbor_sets)})
        if path is not None:
            cache_store(path, model, held)
    return NeighborMap(held.k, {q: held.tokens[q] for q in wanted})


def cache_path(cache_dir, model_name: str) -> str:
    return os.path.join(os.fspath(cache_dir), f"{model_name}.neighbors.tsv")


def _cache_header(model: EmbeddingModel, k: int) -> dict:
    # "format" names the layout of the lines, the query then its tokens, and
    # their order by exact scores of flushed unit rows; "exact-tokens" was
    # that order before the flush, "tokens" the order by computed scores
    return {"digest": model.source_digest, "dim": model.dim, "format": "flushed-exact-tokens",
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
    """The cached neighbor map at the file's capacity, or None when the file
    cannot serve k: its capacity is below k, or it was built for another
    model name, a model file of another SHA-256 or in another format (such
    as the per-rank lines with scores that earlier versions wrote).

    Raises CacheFormatError for a malformed file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise CacheFormatError(f"not valid UTF-8: {exc}") from None
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
    if header != _cache_header(model, capacity) or capacity < k:
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
