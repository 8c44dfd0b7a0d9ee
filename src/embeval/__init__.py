"""embeval: intrinsic evaluation of word embeddings against a SKOS thesaurus."""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule defining it.  Names resolve on first
# access (PEP 562), so importing the package, or a command that needs no
# vectors such as ``clean``, does not import numpy.
_EXPORTS = {
    "coverage": "metrics",
    "diversity_matrix": "metrics",
    "relational_coverage": "metrics",
    "NeighborSet": "neighbors",
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
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
