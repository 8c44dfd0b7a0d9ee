import math
import os
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np
import pytest

from embeval.metrics import (
    coverage,
    diversity_matrix,
    keyword_queries,
    match_map,
    relational_coverage,
)
from embeval.neighbors import neighbor_map, top_k
from embeval.stringsim import VocabIndex
from embeval.thesaurus import keyword_tokens
from embeval.vectors import EmbeddingModel, load_vec

DATA_DIR = Path(__file__).parent / "data"


def make_model(name: str, vocab: list[str], rows, dim: int | None = None) -> EmbeddingModel:
    """The model ``load_vec`` reads from a file of ``vocab`` and ``rows``,
    each number written with ``repr``, which reads back bit for bit."""
    matrix = np.asarray(rows, dtype=np.float64)
    if dim is None:
        dim = matrix.shape[1]
    lines = [f"{len(vocab)} {dim}"]
    lines += [" ".join([token, *map(repr, row)]) for token, row in zip(vocab, matrix.tolist())]
    return load_vec(("\n".join(lines) + "\n").encode("utf-8"), name)


def save_vec(vocab: list[str], rows, dest: Union[str, os.PathLike, BinaryIO]) -> None:
    """Write tokens and their raw rows in word-vector text format, numbers in
    6 significant digits."""
    matrix = np.asarray(rows, dtype=np.float64)
    own = isinstance(dest, (str, os.PathLike))
    fh: BinaryIO = open(dest, "wb") if own else dest
    try:
        fh.write(f"{len(vocab)} {matrix.shape[1]}\n".encode("utf-8"))
        for token, row in zip(vocab, matrix):
            comps = " ".join("%.6g" % v for v in row)
            fh.write(f"{token} {comps}\n".encode("utf-8"))
    finally:
        if own:
            fh.close()


def random_rows(rng: np.random.Generator, n_vocab: int, dim: int,
                n_duplicate_rows: int = 0, n_zero_rows: int = 0) -> np.ndarray:
    """Random raw rows; can plant exact duplicate rows (ties) and zero rows."""
    matrix = rng.standard_normal((n_vocab, dim))
    for _ in range(n_duplicate_rows):
        if n_vocab >= 2:
            src, dst = rng.integers(0, n_vocab, size=2)
            matrix[dst] = matrix[src]
    for _ in range(n_zero_rows):
        matrix[rng.integers(0, n_vocab)] = 0.0
    return matrix


def random_model(rng: np.random.Generator, name: str, n_vocab: int, dim: int,
                 n_duplicate_rows: int = 0, n_zero_rows: int = 0) -> EmbeddingModel:
    """The model of ``random_rows``, tokens ``w0000``, ``w0001``, ..."""
    matrix = random_rows(rng, n_vocab, dim, n_duplicate_rows, n_zero_rows)
    return make_model(name, [f"w{i:04d}" for i in range(n_vocab)], matrix, dim)


def top_tokens(model: EmbeddingModel, query: str, k: int) -> list[str]:
    """The tokens of ``top_k``, in rank order."""
    return [token for token, _ in top_k(model, query, k)]


def anchored(c: float, axis: int, dim: int = 2) -> list[float]:
    """Unit vector with cosine ``c`` against the given axis (2-D plant helper)."""
    rest = math.sqrt(max(0.0, 1.0 - c * c))
    vec = [0.0] * dim
    vec[axis] = c
    vec[1 - axis] = rest
    return vec


# The metrics read tokens and prebuilt maps.  These read labels as the CLI
# does: each label is split once with keyword_tokens, and each neighbor map
# is lowercased under the same flag; each builds the smallest map a call needs.
def read_neighbors(model, queries, k: int, lowercase: bool = True):
    neighbors = neighbor_map(model, queries, k)
    return neighbors.lowered() if lowercase else neighbors


def coverage_at(model, labels, s: float, lowercase: bool = True):
    keywords = [keyword_tokens(label, lowercase) for label in labels]
    matches = match_map(VocabIndex(model.vocab), keywords, s)
    return coverage(keywords, s, matches=matches)


def diversity_at(model_a, model_b, labels, k: int, lowercase: bool = True,
                 denominator: str = "evaluated"):
    keywords = [keyword_tokens(label, lowercase) for label in labels]
    queries = keyword_queries(keywords)
    # keyed by side, so a model can be compared with itself
    maps = {"a": read_neighbors(model_a, queries, k, lowercase),
            "b": read_neighbors(model_b, queries, k, lowercase)}
    return diversity_matrix(maps, keywords, k, denominator=denominator)[("a", "b")]


def pair_tokens(pairs, lowercase: bool = True):
    """Label pairs grouped by relation type, each as the (descriptor tokens,
    concept tokens) the relational metric reads."""
    return {rel: [(keyword_tokens(d, lowercase), keyword_tokens(c, lowercase)) for d, c in rel_pairs]
            for rel, rel_pairs in pairs.items()}


def descriptor_queries(grouped) -> list[str]:
    """The neighbor queries of grouped pairs, as the CLI builds them."""
    return keyword_queries([d for rel_pairs in grouped.values() for d, _ in rel_pairs])


def relational_at(model, pairs, k: int, lowercase: bool = True, oov_policy: str = "miss"):
    tokenized = pair_tokens(pairs, lowercase)
    neighbors = read_neighbors(model, descriptor_queries(tokenized), k, lowercase)
    return relational_coverage(tokenized, k, neighbors=neighbors, oov_policy=oov_policy)


@pytest.fixture
def thesaurus_mini_path() -> Path:
    return DATA_DIR / "thesaurus_mini.nt"


@pytest.fixture
def langid_fixture_path() -> Path:
    return DATA_DIR / "langid_labeled_200.tsv"
