import math
from pathlib import Path

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


def random_model(rng: np.random.Generator, name: str, n_vocab: int, dim: int,
                 n_duplicate_rows: int = 0, n_zero_rows: int = 0) -> EmbeddingModel:
    """Random model; can plant exact duplicate rows (ties) and zero rows."""
    matrix = rng.standard_normal((n_vocab, dim))
    for _ in range(n_duplicate_rows):
        if n_vocab >= 2:
            src, dst = rng.integers(0, n_vocab, size=2)
            matrix[dst] = matrix[src]
    for _ in range(n_zero_rows):
        matrix[rng.integers(0, n_vocab)] = 0.0
    vocab = [f"w{i:04d}" for i in range(n_vocab)]
    return make_model(name, vocab, matrix, dim)


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
