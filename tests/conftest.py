import math
import os
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np
import pytest

from embeval.metrics import (
    coverage,
    descriptor_queries,
    diversity,
    keyword_queries,
    match_map,
    relational_coverage,
)
from embeval.neighbors import neighbor_map
from embeval.stringsim import VocabIndex
from embeval.vectors import EmbeddingModel

DATA_DIR = Path(__file__).parent / "data"


def make_model(name: str, vocab: list[str], rows, dim: int | None = None) -> EmbeddingModel:
    matrix = np.asarray(rows, dtype=np.float64)
    if dim is None:
        dim = matrix.shape[1]
    # zero_rows are derived by the model itself
    return EmbeddingModel(name=name, dim=dim, vocab=list(vocab), matrix=matrix)


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


def anchored(c: float, axis: int, dim: int = 2) -> list[float]:
    """Unit vector with cosine ``c`` against the given axis (2-D plant helper)."""
    rest = math.sqrt(max(0.0, 1.0 - c * c))
    vec = [0.0] * dim
    vec[axis] = c
    vec[1 - axis] = rest
    return vec


# The metrics read prebuilt maps; these build the smallest map each call needs.
def coverage_at(model, labels, s: float, lowercase: bool = True):
    matches = match_map(VocabIndex(model.vocab), labels, s, lowercase)
    return coverage(model.name, labels, s, matches=matches, lowercase=lowercase)


def diversity_at(model_a, model_b, labels, k: int, lowercase: bool = True,
                 denominator: str = "evaluated"):
    queries = keyword_queries(labels, lowercase)
    return diversity(model_a.name, model_b.name, labels, k, neighbors_a=neighbor_map(model_a, queries, k),
                     neighbors_b=neighbor_map(model_b, queries, k), lowercase=lowercase,
                     denominator=denominator)


def relational_at(model, pairs, k: int, lowercase: bool = True, oov_policy: str = "miss"):
    neighbors = neighbor_map(model, descriptor_queries(pairs, lowercase), k)
    return relational_coverage(model.name, pairs, k, neighbors=neighbors, lowercase=lowercase,
                               oov_policy=oov_policy)


@pytest.fixture
def thesaurus_mini_path() -> Path:
    return DATA_DIR / "thesaurus_mini.nt"


@pytest.fixture
def langid_fixture_path() -> Path:
    return DATA_DIR / "langid_labeled_200.tsv"
