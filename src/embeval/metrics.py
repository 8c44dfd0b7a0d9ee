"""The three intrinsic evaluation metrics over models and a thesaurus.

* coverage: share of thesaurus keywords whose tokens are all found in a
  model vocabulary, exactly or within a ratio-similarity threshold s.
* diversity: share of keywords whose top-k neighborhoods in two models are
  disjoint.
* relational coverage: share of (descriptor, concept) pairs where the
  concept label appears among the descriptor's top-k neighbors, per
  relation type.

Keyword labels are lowercased by default and hyphens are mapped to spaces
before whitespace splitting, mirroring what the corpus cleaning does to the
training text; otherwise case and hyphenation would spuriously zero the
scores.  All percentages are exact counts scaled by 100; rendering to two
decimals happens in the report layer.
"""

import logging
import re
from dataclasses import dataclass, field
from typing import Sequence

from .neighbors import NeighborMap, neighbor_map, queryable
from .corpus import HYPHEN_CHARS, DASH_CHARS
from .stringsim import RatioMatch, VocabIndex, best_match
from .thesaurus import DescriptorPair
from .vectors import EmbeddingModel

logger = logging.getLogger(__name__)

_HYPHEN_TO_SPACE = re.compile(f"[{HYPHEN_CHARS}{DASH_CHARS}]")

DENOMINATOR_POLICIES = ("evaluated", "total")
OOV_POLICIES = ("miss", "skip")


def keyword_tokens(label: str, lowercase: bool = True) -> tuple[str, ...]:
    """Tokens of a thesaurus label, aligned with corpus tokens."""
    text = label.lower() if lowercase else label
    text = _HYPHEN_TO_SPACE.sub(" ", text)
    return tuple(text.split())


@dataclass
class KeywordHit:
    """How one covered keyword matched: per token the vocab word and its ratio."""

    keyword: str
    matches: list[tuple[str, str, float]]

    @property
    def min_ratio(self) -> float:
        return min(r for _, _, r in self.matches)


@dataclass
class CoverageResult:
    model_name: str
    s: float
    n_keywords: int
    n_covered: int
    hits: list[KeywordHit] = field(default_factory=list)

    @property
    def c(self) -> float:
        """Coverage as a percentage of all keywords."""
        if self.n_keywords == 0:
            return 0.0
        return 100.0 * self.n_covered / self.n_keywords


@dataclass
class DiversityResult:
    model_a: str
    model_b: str
    k: int
    n_total: int
    n_evaluated: int
    n_disjoint: int
    denominator: str = "evaluated"
    n_skipped_multiword: int = 0
    n_skipped_oov: int = 0
    n_skipped_empty: int = 0

    @property
    def d(self) -> float:
        """Diversity percentage under the configured denominator policy."""
        n = self.n_evaluated if self.denominator == "evaluated" else self.n_total
        if n == 0:
            return 0.0
        return 100.0 * self.n_disjoint / n

    @property
    def d_evaluated(self) -> float:
        return 100.0 * self.n_disjoint / self.n_evaluated if self.n_evaluated else 0.0

    @property
    def d_total(self) -> float:
        return 100.0 * self.n_disjoint / self.n_total if self.n_total else 0.0


@dataclass
class RelationalResult:
    model_name: str
    relation: str
    k: int
    n_pairs: int
    n_found: int
    n_oov_descriptors: int
    oov_policy: str = "miss"

    @property
    def r(self) -> float:
        """Relational coverage percentage; OOV handling follows the policy."""
        n = self.n_pairs
        if self.oov_policy == "skip":
            n -= self.n_oov_descriptors
        if n <= 0:
            return 0.0
        return 100.0 * self.n_found / n


def _match_tokens(
    tokens: Sequence[str],
    index: VocabIndex,
    s: float,
    matches: dict[str, RatioMatch | None],
) -> None:
    """Add the ``best_match`` at s of each token up to its first miss to ``matches``.

    A token already in ``matches`` is not matched again.
    """
    for token in tokens:
        if token not in matches:
            matches[token] = best_match(token, index, s)
        if matches[token] is None:
            return


def _match_records(
    tokens: Sequence[str], matches: dict[str, RatioMatch | None], s: float
) -> list[tuple[str, str, float]] | None:
    """Match records of the tokens if every one reaches ratio >= s in ``matches``.

    An empty token list never counts as covered.
    """
    if not tokens:
        logger.warning("keyword reduced to no tokens; counted as not covered")
        return None
    records: list[tuple[str, str, float]] = []
    for token in tokens:
        if token not in matches:
            raise ValueError(f"match map lacks the keyword token {token!r}")
        m = matches[token]
        if m is None or m.ratio < s:
            return None
        records.append((token, m.matched_vocab_token, m.ratio))
    return records


def match_map(
    index: VocabIndex,
    keywords: Sequence[str],
    s_min: float,
    lowercase: bool = True,
) -> dict[str, RatioMatch | None]:
    """The ``best_match`` at ``s_min`` of every keyword token coverage can reach.

    Each label's tokens are matched in order up to the first miss, and each
    distinct token once.  The match at any s >= s_min is the stored match
    if its ratio is >= s, and a miss otherwise, so one map serves every
    such threshold.
    """
    matches: dict[str, RatioMatch | None] = {}
    for label in keywords:
        _match_tokens(keyword_tokens(label, lowercase=lowercase), index, s_min, matches)
    return matches


def keyword_covered(
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
    if index is None:
        index = VocabIndex(model.vocab)
    tokens = [t.lower() for t in keyword] if lowercase else list(keyword)
    matches: dict[str, RatioMatch | None] = {}
    _match_tokens(tokens, index, s, matches)
    return _match_records(tokens, matches, s)


def coverage(
    model: EmbeddingModel,
    keywords: Sequence[str],
    s: float,
    lowercase: bool = True,
    index: VocabIndex | None = None,
    matches: dict[str, RatioMatch | None] | None = None,
) -> CoverageResult:
    """Coverage of the keyword list in the model vocabulary at threshold s.

    Token matches are read from ``matches``, a ``match_map`` of these
    keywords built at a threshold <= s; a map not given is built at s.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"threshold s must be in (0, 1], got {s}")
    if matches is None:
        if index is None:
            index = VocabIndex(model.vocab)
        matches = match_map(index, keywords, s, lowercase=lowercase)
    result = CoverageResult(model.name, s, n_keywords=len(keywords), n_covered=0)
    for label in keywords:
        records = _match_records(keyword_tokens(label, lowercase=lowercase), matches, s)
        if records is not None:
            result.n_covered += 1
            result.hits.append(KeywordHit(label, records))
    return result


def _label(label: str, lowercase: bool) -> str:
    return label.lower() if lowercase else label


def _single_token(label: str, lowercase: bool) -> str | None:
    tokens = keyword_tokens(label, lowercase=lowercase)
    return tokens[0] if len(tokens) == 1 else None


def keyword_queries(keywords: Sequence[str], lowercase: bool = True) -> list[str]:
    """The neighbor queries of diversity: the tokens of the single-token keywords."""
    tokens = (_single_token(label, lowercase) for label in keywords)
    return [t for t in tokens if t is not None]


def descriptor_queries(pairs: Sequence[DescriptorPair], lowercase: bool = True) -> list[str]:
    """The neighbor queries of relational coverage: the descriptor labels."""
    return [_label(pair.descriptor_label, lowercase) for pair in pairs]


def _neighbor_tokens(neighbors: NeighborMap, query: str, k: int,
                     lowercase: bool) -> frozenset[str]:
    """The top-k tokens of ``query``: the first k of its tokens in the map."""
    tokens = neighbors.tokens.get(query)
    if tokens is None or neighbors.k < k:
        raise ValueError(f"neighbor map lacks the top-{k} of {query!r}")
    tokens = tokens[:k]
    return frozenset(t.lower() for t in tokens) if lowercase else frozenset(tokens)


def diversity(
    model_a: EmbeddingModel,
    model_b: EmbeddingModel,
    keywords: Sequence[str],
    k: int,
    lowercase: bool = True,
    denominator: str = "evaluated",
    neighbors_a: NeighborMap | None = None,
    neighbors_b: NeighborMap | None = None,
) -> DiversityResult:
    """Share of keywords whose top-k neighborhoods in the two models are disjoint.

    Multi-token keywords and keywords missing from either vocabulary are
    skipped and counted.  Neighborhoods are read from the given neighbor
    maps (for example from the on-disk cache), which must hold capacity
    >= k; a map not given is searched once with ``neighbor_map``.
    Keywords whose neighborhoods are empty in both models are skipped so
    that comparing a model with itself always yields zero.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if denominator not in DENOMINATOR_POLICIES:
        raise ValueError(f"unknown denominator policy {denominator!r}")
    if neighbors_a is None:
        neighbors_a = neighbor_map(model_a, keyword_queries(keywords, lowercase), k)
    if neighbors_b is None:
        neighbors_b = neighbor_map(model_b, keyword_queries(keywords, lowercase), k)
    result = DiversityResult(
        model_a.name, model_b.name, k,
        n_total=len(keywords), n_evaluated=0, n_disjoint=0,
        denominator=denominator,
    )
    for label in keywords:
        token = _single_token(label, lowercase)
        if token is None:
            result.n_skipped_multiword += 1
            continue
        if not queryable(model_a, token) or not queryable(model_b, token):
            result.n_skipped_oov += 1
            continue
        set_a = _neighbor_tokens(neighbors_a, token, k, lowercase)
        set_b = _neighbor_tokens(neighbors_b, token, k, lowercase)
        if not set_a and not set_b:
            result.n_skipped_empty += 1
            continue
        result.n_evaluated += 1
        if not set_a & set_b:
            result.n_disjoint += 1
    return result


def diversity_matrix(
    models: Sequence[EmbeddingModel],
    keywords: Sequence[str],
    k: int,
    lowercase: bool = True,
    denominator: str = "evaluated",
    neighbor_maps: dict[str, NeighborMap] | None = None,
) -> dict[tuple[str, str], DiversityResult]:
    """All unordered model pairs, computed once and mirrored; zero diagonal."""
    if len(models) < 2:
        raise ValueError("diversity needs at least two models")
    given = neighbor_maps or {}
    queries = keyword_queries(keywords, lowercase)
    maps = {
        m.name: given[m.name] if m.name in given else neighbor_map(m, queries, k)
        for m in models
    }
    out: dict[tuple[str, str], DiversityResult] = {}
    for i, a in enumerate(models):
        for b in models[i + 1 :]:
            res = diversity(
                a, b, keywords, k,
                lowercase=lowercase, denominator=denominator,
                neighbors_a=maps[a.name], neighbors_b=maps[b.name],
            )
            out[(a.name, b.name)] = res
            out[(b.name, a.name)] = res
    return out


def relational_coverage(
    model: EmbeddingModel,
    pairs: Sequence[DescriptorPair],
    k: int,
    lowercase: bool = True,
    oov_policy: str = "miss",
    neighbors: NeighborMap | None = None,
) -> dict[str, RelationalResult]:
    """Relational coverage per relation type present in ``pairs``.

    A pair counts as found when the concept label is among the descriptor's
    top-k neighbor tokens (compared as exact lowercase strings by default),
    read from ``neighbors`` (capacity >= k) or, when that is not given,
    from one ``neighbor_map`` search of the descriptors.  Descriptors
    missing from the vocabulary count as misses under the default policy,
    keeping n at the full pair count; the ``skip`` policy removes them from
    the denominator instead.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if oov_policy not in OOV_POLICIES:
        raise ValueError(f"unknown oov policy {oov_policy!r}")
    if neighbors is None:
        neighbors = neighbor_map(model, descriptor_queries(pairs, lowercase), k)
    results: dict[str, RelationalResult] = {}
    for pair in pairs:
        res = results.get(pair.relation_type)
        if res is None:
            res = results[pair.relation_type] = RelationalResult(
                model.name, pair.relation_type, k,
                n_pairs=0, n_found=0, n_oov_descriptors=0, oov_policy=oov_policy,
            )
        res.n_pairs += 1
        descriptor = _label(pair.descriptor_label, lowercase)
        if not queryable(model, descriptor):
            res.n_oov_descriptors += 1
            continue
        concept = _label(pair.concept_label, lowercase)
        if concept in _neighbor_tokens(neighbors, descriptor, k, lowercase):
            res.n_found += 1
    return results
