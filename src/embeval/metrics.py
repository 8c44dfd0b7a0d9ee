"""The three intrinsic evaluation metrics, as pure functions over prebuilt maps.

* coverage: share of thesaurus keywords whose tokens are all found in a
  model vocabulary, exactly or within a ratio-similarity threshold s.  It
  reads each token's match from a ``match_map``.
* diversity: share of keywords whose top-k neighborhoods in two models are
  disjoint.  It reads them from one ``neighbors.neighbor_map`` per model.
* relational coverage: share of (descriptor, concept) pairs where the
  concept label appears among the descriptor's top-k neighbors, per
  relation type.  It reads them from the model's ``neighbor_map``.

No metric searches a vocabulary or reads a model: the caller builds each
map once per model, and every threshold or k reads it, so a model can be
dropped once its map is built and the metrics take model names.  A
neighbor map holds exactly the queries that have a neighborhood, so a
query is in the vocabulary with a nonzero vector exactly when it is in
the map.  Every metric splits a label with ``thesaurus.keyword_tokens``
(lowercased by default, hyphens mapped to spaces), mirroring what the
corpus cleaning does to the training text; otherwise case and
hyphenation would spuriously zero the scores.  A label of more than one
token is skipped by diversity and counts as an out-of-vocabulary
descriptor, or as a concept not found, in relational coverage.  All
percentages are exact counts scaled by 100; rendering to two decimals
happens in the report layer.
"""

import logging
from dataclasses import dataclass
from typing import Sequence

from .neighbors import NeighborMap
from .stringsim import RatioMatch, VocabIndex, best_match
from .thesaurus import DescriptorPair, keyword_tokens

logger = logging.getLogger(__name__)

DENOMINATOR_POLICIES = ("evaluated", "total")
OOV_POLICIES = ("miss", "skip")


@dataclass
class CoverageResult:
    model_name: str
    s: float
    n_keywords: int
    n_covered: int

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


def _covered(tokens: Sequence[str], matches: dict[str, RatioMatch | None], s: float) -> bool:
    """Whether every one of the tokens reaches ratio >= s in ``matches``.

    An empty token list never counts as covered.
    """
    if not tokens:
        logger.warning("keyword reduced to no tokens; counted as not covered")
        return False
    for token in tokens:
        if token not in matches:
            raise ValueError(f"match map lacks the keyword token {token!r}")
        m = matches[token]
        if m is None or m.ratio < s:
            return False
    return True


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
        for token in keyword_tokens(label, lowercase=lowercase):
            if token not in matches:
                matches[token] = best_match(token, index, s_min)
            if matches[token] is None:
                break
    return matches


def coverage(
    name: str,
    keywords: Sequence[str],
    s: float,
    matches: dict[str, RatioMatch | None],
    lowercase: bool = True,
) -> CoverageResult:
    """Coverage of the keyword list in the vocabulary of model ``name`` at threshold s.

    Token matches are read from ``matches``, a ``match_map`` of these
    keywords in that vocabulary built at a threshold <= s.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"threshold s must be in (0, 1], got {s}")
    result = CoverageResult(name, s, n_keywords=len(keywords), n_covered=0)
    for label in keywords:
        if _covered(keyword_tokens(label, lowercase=lowercase), matches, s):
            result.n_covered += 1
    return result


def _single_token(label: str, lowercase: bool) -> str | None:
    tokens = keyword_tokens(label, lowercase=lowercase)
    return tokens[0] if len(tokens) == 1 else None


def keyword_queries(keywords: Sequence[str], lowercase: bool = True) -> list[str]:
    """The neighbor queries of diversity: the tokens of the single-token keywords."""
    tokens = (_single_token(label, lowercase) for label in keywords)
    return [t for t in tokens if t is not None]


def descriptor_queries(pairs: Sequence[DescriptorPair], lowercase: bool = True) -> list[str]:
    """The neighbor queries of relational coverage: the tokens of the single-token descriptors."""
    return keyword_queries([pair.descriptor_label for pair in pairs], lowercase)


def _top_sets(neighbors: NeighborMap, k: int, lowercase: bool) -> dict[str, frozenset[str]]:
    """The set of top-k tokens of every query in the map, each built once.

    Lowercased tokens come from ``neighbors.lowered``, lowercased once per
    map, so each k reuses those strings and their hashes.
    """
    if neighbors.k < k:
        raise ValueError(f"a neighbor map of capacity {neighbors.k} lacks the top-{k}")
    tokens = neighbors.lowered if lowercase else neighbors.tokens
    return {q: frozenset(t[:k]) for q, t in tokens.items()}


def diversity(
    name_a: str,
    name_b: str,
    keywords: Sequence[str],
    k: int,
    neighbors_a: NeighborMap,
    neighbors_b: NeighborMap,
    lowercase: bool = True,
    denominator: str = "evaluated",
) -> DiversityResult:
    """Share of keywords whose top-k neighborhoods in the two models are disjoint.

    Neighborhoods are read from the two neighbor maps of the
    ``keyword_queries``, which must hold capacity >= k; a keyword token
    not in a map is out of that model's vocabulary or has a zero vector.
    Multi-token keywords and keywords out of either vocabulary are skipped
    and counted.  Keywords whose neighborhoods are empty in both models
    are skipped so that comparing a model with itself always yields zero.
    """
    tokens = [_single_token(label, lowercase) for label in keywords]
    return _diversity(name_a, name_b, tokens, k, _top_sets(neighbors_a, k, lowercase),
                      _top_sets(neighbors_b, k, lowercase), denominator)


def _diversity(
    name_a: str,
    name_b: str,
    tokens: list[str | None],
    k: int,
    sets_a: dict[str, frozenset[str]],
    sets_b: dict[str, frozenset[str]],
    denominator: str,
) -> DiversityResult:
    """``diversity`` over each keyword's single token (None for several) and
    the ``_top_sets`` of the two maps."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if denominator not in DENOMINATOR_POLICIES:
        raise ValueError(f"unknown denominator policy {denominator!r}")
    result = DiversityResult(
        name_a, name_b, k,
        n_total=len(tokens), n_evaluated=0, n_disjoint=0,
        denominator=denominator,
    )
    for token in tokens:
        if token is None:
            result.n_skipped_multiword += 1
            continue
        set_a = sets_a.get(token)
        set_b = sets_b.get(token)
        if set_a is None or set_b is None:
            result.n_skipped_oov += 1
            continue
        if not set_a and not set_b:
            result.n_skipped_empty += 1
            continue
        result.n_evaluated += 1
        if set_a.isdisjoint(set_b):
            result.n_disjoint += 1
    return result


def diversity_matrix(
    neighbor_maps: dict[str, NeighborMap],
    keywords: Sequence[str],
    k: int,
    lowercase: bool = True,
    denominator: str = "evaluated",
) -> dict[tuple[str, str], DiversityResult]:
    """All unordered model pairs, computed once and mirrored; zero diagonal.

    ``neighbor_maps`` holds one neighbor map per model name; pairs follow
    its key order.
    """
    if len(neighbor_maps) < 2:
        raise ValueError("diversity needs at least two models")
    tokens = [_single_token(label, lowercase) for label in keywords]
    sets = {name: _top_sets(neighbors, k, lowercase) for name, neighbors in neighbor_maps.items()}
    names = list(neighbor_maps)
    out: dict[tuple[str, str], DiversityResult] = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            res = _diversity(a, b, tokens, k, sets[a], sets[b], denominator)
            out[(a, b)] = res
            out[(b, a)] = res
    return out


def relational_coverage(
    name: str,
    pairs: Sequence[DescriptorPair],
    k: int,
    neighbors: NeighborMap,
    lowercase: bool = True,
    oov_policy: str = "miss",
) -> dict[str, RelationalResult]:
    """Relational coverage of model ``name`` per relation type present in ``pairs``.

    A pair counts as found when the concept label's token is among the
    descriptor's top-k neighbor tokens (compared as exact lowercase
    strings by default), read from ``neighbors``, the neighbor map of the
    ``descriptor_queries`` (capacity >= k).  A descriptor of more than one
    token, or not in the map (missing from the vocabulary or a zero
    vector), is out of vocabulary; such descriptors count as misses under
    the default policy, keeping n at the full pair count, and the ``skip``
    policy removes them from the denominator instead.  A concept of more
    than one token is never found.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if oov_policy not in OOV_POLICIES:
        raise ValueError(f"unknown oov policy {oov_policy!r}")
    sets = _top_sets(neighbors, k, lowercase)
    results: dict[str, RelationalResult] = {}
    for pair in pairs:
        res = results.get(pair.relation_type)
        if res is None:
            res = results[pair.relation_type] = RelationalResult(
                name, pair.relation_type, k,
                n_pairs=0, n_found=0, n_oov_descriptors=0, oov_policy=oov_policy,
            )
        res.n_pairs += 1
        # None, a multi-token descriptor, is in no map
        top = sets.get(_single_token(pair.descriptor_label, lowercase))
        if top is None:
            res.n_oov_descriptors += 1
            continue
        # None, a multi-token concept, is in no neighbor set
        if _single_token(pair.concept_label, lowercase) in top:
            res.n_found += 1
    return results
