"""embeval: intrinsic evaluation of word embeddings against a SKOS thesaurus."""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule defining it.  Names resolve on first
# access (PEP 562), so importing the package, or a command that needs no
# vectors such as ``clean``, does not import numpy.
_EXPORTS = {
    "coverage": "metrics",
    "diversity": "metrics",
    "diversity_matrix": "metrics",
    "relational_coverage": "metrics",
    "NeighborSet": "neighbors",
    "cosine": "neighbors",
    "top_k": "neighbors",
    "top_k_batch": "neighbors",
    "RatioMatch": "stringsim",
    "VocabIndex": "stringsim",
    "best_match": "stringsim",
    "edit_distance_sub2": "stringsim",
    "ratio": "stringsim",
    "Thesaurus": "thesaurus",
    "descriptor_pairs": "thesaurus",
    "keywords": "thesaurus",
    "parse_ntriples_skos": "thesaurus",
    "parse_tsv": "thesaurus",
    "EmbeddingModel": "vectors",
    "load_vec": "vectors",
    "load_vocab": "vectors",
    "save_vec": "vectors",
    "vector": "vectors",
}

__all__ = [
    "EmbeddingModel",
    "NeighborSet",
    "RatioMatch",
    "Thesaurus",
    "VocabIndex",
    "__version__",
    "best_match",
    "cosine",
    "coverage",
    "descriptor_pairs",
    "diversity",
    "diversity_matrix",
    "edit_distance_sub2",
    "keywords",
    "load_vec",
    "load_vocab",
    "parse_ntriples_skos",
    "parse_tsv",
    "ratio",
    "relational_coverage",
    "save_vec",
    "top_k",
    "top_k_batch",
    "vector",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
