"""Independent brute-force reimplementations used as test oracles.

Everything here is deliberately naive: full DP matrices, full sorts, full
scans.  The point is that none of it shares pruning, banding or selection
logic with the code under test.
"""

import hashlib
import logging
import re
from typing import Sequence

import numpy as np

from embeval.errors import VecFormatError
from embeval.metrics import CoverageResult, KeywordHit, keyword_tokens
from embeval.stringsim import VocabIndex, best_match
from embeval.vectors import EmbeddingModel, Source, _read_bytes

logger = logging.getLogger(__name__)

HYPHENS = "-­‐‑‒–—"
_HYPHEN_RE = re.compile(f"[{HYPHENS}]")


def dp_edit_distance_sub2(a: str, b: str) -> int:
    """Full-matrix DP; insert/delete cost 1, substitution cost 2."""
    la, lb = len(a), len(b)
    d = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        d[i][0] = i
    for j in range(lb + 1):
        d[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            sub = d[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 2)
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, sub)
    return d[la][lb]


def ratio_oracle(a: str, b: str) -> float:
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return (total - dp_edit_distance_sub2(a, b)) / total


def knn_oracle(model, query: str, k: int) -> list[tuple[str, float]]:
    """Enumerate every candidate and fully sort by (-score, vocab index).

    Scores come from the same unit-row product the engine uses, so the
    selection logic is what gets verified, bit for bit.
    """
    unit = model.unit_matrix()
    qi = model.index[query]
    scores = unit @ unit[qi]
    candidates = [
        i for i in range(len(model.vocab)) if i != qi and i not in model.zero_rows
    ]
    order = sorted(candidates, key=lambda i: (-scores[i], i))
    return [(model.vocab[i], float(scores[i])) for i in order[:k]]


def raw_cosine(u, v) -> float:
    """Cosine straight from the definition on the raw vectors."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def keyword_tokens_oracle(label: str, lowercase: bool = True) -> list[str]:
    text = label.lower() if lowercase else label
    return _HYPHEN_RE.sub(" ", text).split()


def naive_coverage_count(vocab: list[str], labels, s: float, lowercase=True) -> int:
    """Count labels whose every token has some vocab word with ratio >= s."""
    covered = 0
    for label in labels:
        tokens = keyword_tokens_oracle(label, lowercase)
        if not tokens:
            continue
        if all(any(ratio_oracle(t, w) >= s for w in vocab) for t in tokens):
            covered += 1
    return covered


def naive_neighbor_tokens(model, query: str, k: int, lowercase=True) -> frozenset[str]:
    tokens = [t for t, _ in knn_oracle(model, query, k)]
    return frozenset(t.lower() for t in tokens) if lowercase else frozenset(tokens)


def _queryable(model, token: str) -> bool:
    row = model.index.get(token)
    return row is not None and row not in model.zero_rows


def naive_diversity(model_a, model_b, labels, k: int, lowercase=True):
    """(n_evaluated, n_disjoint) by full enumeration."""
    n_evaluated = 0
    n_disjoint = 0
    for label in labels:
        tokens = keyword_tokens_oracle(label, lowercase)
        if len(tokens) != 1:
            continue
        token = tokens[0]
        if not _queryable(model_a, token) or not _queryable(model_b, token):
            continue
        set_a = naive_neighbor_tokens(model_a, token, k, lowercase)
        set_b = naive_neighbor_tokens(model_b, token, k, lowercase)
        if not set_a and not set_b:
            continue
        n_evaluated += 1
        if not (set_a & set_b):
            n_disjoint += 1
    return n_evaluated, n_disjoint


def naive_relational(model, pairs, k: int, lowercase=True):
    """Per relation type: (n_pairs, n_found, n_oov) by full enumeration."""
    out: dict[str, list[int]] = {}
    for pair in pairs:
        acc = out.setdefault(pair.relation_type, [0, 0, 0])
        acc[0] += 1
        descriptor = pair.descriptor_label.lower() if lowercase else pair.descriptor_label
        concept = pair.concept_label.lower() if lowercase else pair.concept_label
        if not _queryable(model, descriptor):
            acc[2] += 1
            continue
        if concept in naive_neighbor_tokens(model, descriptor, k, lowercase):
            acc[1] += 1
    return {rel: tuple(v) for rel, v in out.items()}


# The word-vector loader as it was before components were parsed a chunk at
# a time: one float() per component, checks in file order.
def load_vec_oracle(source: Source, name: str, keep_first: bool = False) -> EmbeddingModel:
    """Parse a word-vector text file into an EmbeddingModel.

    ``keep_first`` downgrades duplicate tokens from an error to a warning,
    keeping the first occurrence; the duplicate row is dropped so the header
    count is then allowed to exceed the stored row count.
    """
    raw = _read_bytes(source)
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise VecFormatError(f"not valid UTF-8: {exc}") from None
    if text.startswith("﻿"):
        raise VecFormatError("file starts with a BOM", line_no=1)

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise VecFormatError("empty file", line_no=1)

    header = lines[0].split(" ")
    if len(header) != 2 or not header[0].isdigit() or not header[1].isdigit():
        raise VecFormatError(f"malformed header {lines[0]!r}", line_no=1)
    count, dim = int(header[0]), int(header[1])
    if dim <= 0:
        raise VecFormatError(f"dimension must be positive, got {dim}", line_no=1)

    if len(lines) - 1 != count:
        raise VecFormatError(
            f"header declares {count} rows but file has {len(lines) - 1}"
        )

    vocab: list[str] = []
    seen: dict[str, int] = {}
    rows = np.empty((count, dim), dtype=np.float64)
    dropped = 0
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(" ")
        if len(parts) != dim + 1:
            raise VecFormatError(
                f"expected token plus {dim} components, found {len(parts) - 1}",
                line_no=line_no,
            )
        token = parts[0]
        if not token:
            raise VecFormatError("empty token", line_no=line_no)
        if token in seen:
            if not keep_first:
                raise VecFormatError(f"duplicate token {token!r}", line_no=line_no)
            logger.warning(
                "%s: duplicate token %r on line %d; keeping first occurrence",
                name, token, line_no,
            )
            dropped += 1
            continue
        try:
            values = [float(p) for p in parts[1:]]
        except ValueError:
            raise VecFormatError("unparseable vector component", line_no=line_no) from None
        if not all(np.isfinite(values)):
            raise VecFormatError("non-finite vector component", line_no=line_no)
        seen[token] = len(vocab)
        rows[len(vocab)] = values
        vocab.append(token)

    if dropped:
        rows = rows[: len(vocab)]

    matrix = rows
    norms = np.linalg.norm(matrix, axis=1)
    zero_rows = frozenset(int(i) for i in np.flatnonzero(norms == 0.0))
    if zero_rows:
        logger.warning("%s: %d zero vector(s) in input", name, len(zero_rows))
    return EmbeddingModel(
        name=name,
        dim=dim,
        vocab=vocab,
        matrix=matrix,
        normalized=False,
        zero_rows=zero_rows,
        source_digest=digest,
    )


# Coverage as it was before token matches were shared across thresholds:
# one best_match per token, label and threshold.
def keyword_covered_oracle(
    keyword: Sequence[str],
    model: EmbeddingModel,
    s: float,
    index: VocabIndex | None = None,
    lowercase: bool = True,
) -> list[tuple[str, str, float]] | None:
    """Match records if every keyword token reaches ratio >= s in the vocabulary.

    Returns None when any token misses.  Tokens are lowercased first by
    default (lowercasing is idempotent, so pre-normalized tokens are fine).
    An empty keyword never counts as covered.
    """
    if not keyword:
        logger.warning("keyword reduced to no tokens; counted as not covered")
        return None
    if index is None:
        index = VocabIndex(model.vocab)
    matches: list[tuple[str, str, float]] = []
    for token in keyword:
        if lowercase:
            token = token.lower()
        m = best_match(token, index, s)
        if m is None:
            return None
        matches.append((token, m.matched_vocab_token, m.ratio))
    return matches


def coverage_oracle(
    model: EmbeddingModel,
    keywords: Sequence[str],
    s: float,
    lowercase: bool = True,
    index: VocabIndex | None = None,
) -> CoverageResult:
    """Coverage of the keyword list in the model vocabulary at threshold s."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"threshold s must be in (0, 1], got {s}")
    if index is None:
        index = VocabIndex(model.vocab)
    result = CoverageResult(model.name, s, n_keywords=len(keywords), n_covered=0)
    for label in keywords:
        tokens = keyword_tokens(label, lowercase=lowercase)
        matches = keyword_covered_oracle(tokens, model, s, index=index, lowercase=lowercase)
        if matches is not None:
            result.n_covered += 1
            result.hits.append(KeywordHit(label, matches))
    return result
