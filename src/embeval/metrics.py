"""The three intrinsic evaluation metrics, as pure functions over prebuilt maps.

* coverage: share of thesaurus keywords whose tokens are all found in a
  model vocabulary, exactly or within a ratio-similarity threshold s.  It
  reads each token's match from a ``match_map``.
* diversity: share of keywords whose top-k neighborhoods in two models are
  disjoint.  It reads them from one ``neighbors.neighbor_map`` per model.
* relational coverage: share of (descriptor, concept) pairs where the
  concept label appears among the descriptor's top-k neighbors, per
  relation type, over pairs the caller groups by relation type.  It reads
  the neighbors from the model's ``neighbor_map``.

No metric searches a vocabulary or reads a model: the caller builds each
map once per model, and every threshold or k reads it, so a model can be
dropped once its map is built.  The metrics take no model name either:
the caller labels each result with the model, s or k it passed.  A
neighbor map holds exactly the queries that have a neighborhood, so a
query is in the vocabulary with a nonzero vector exactly when it is in
the map.  No metric reads a label either: a keyword is its tuple of
tokens, split by the caller with ``thesaurus.keyword_tokens``, and tokens
are compared as given, so the caller reads labels and neighbor tokens
alike (``cli`` lowercases both unless told not to, and warns once about
each label that has no tokens; coverage counts it as not covered).  A
keyword of more than one token is skipped by diversity and counts as an
out-of-vocabulary descriptor, or as a concept not found, in relational
coverage.  All percentages are exact counts scaled by 100; rendering to
two decimals happens in the report layer.
"""

from dataclasses import dataclass
from typing import Mapping, Sequence

from .neighbors import NeighborMap
from .stringsim import RatioMatch, VocabIndex, best_match

DENOMINATOR_POLICIES = ("evaluated", "total")
OOV_POLICIES = ("miss", "skip")


@dataclass
class CoverageResult:
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
    keywords: Sequence[Sequence[str]],
    s_min: float,
) -> dict[str, RatioMatch | None]:
    """The ``best_match`` at ``s_min`` of every keyword token coverage can reach.

    Each keyword's tokens are matched in order up to the first miss, and
    each distinct token once.  The match at any s >= s_min is the stored
    match if its ratio is >= s, and a miss otherwise, so one map serves
    every such threshold.
    """
    matches: dict[str, RatioMatch | None] = {}
    for tokens in keywords:
        for token in tokens:
            if token not in matches:
                matches[token] = best_match(token, index, s_min)
            if matches[token] is None:
                break
    return matches


def coverage(
    keywords: Sequence[Sequence[str]],
    s: float,
    matches: dict[str, RatioMatch | None],
) -> CoverageResult:
    """Coverage of the keywords in one model's vocabulary at threshold s.

    Each keyword is its tuple of tokens.  Token matches are read from
    ``matches``, a ``match_map`` of these keywords in that vocabulary built
    at a threshold <= s.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"threshold s must be in (0, 1], got {s}")
    result = CoverageResult(n_keywords=len(keywords), n_covered=0)
    for tokens in keywords:
        if _covered(tokens, matches, s):
            result.n_covered += 1
    return result


def keyword_queries(keywords: Sequence[Sequence[str]]) -> list[str]:
    """The neighbor queries of diversity and relational coverage: the
    tokens of the single-token keywords."""
    return [tokens[0] for tokens in keywords if len(tokens) == 1]


def _top_sets(neighbors: NeighborMap, k: int) -> dict[str, frozenset[str]]:
    """The set of top-k tokens of every query in the map, each built once."""
    if neighbors.k < k:
        raise ValueError(f"a neighbor map of capacity {neighbors.k} lacks the top-{k}")
    return {q: frozenset(t[:k]) for q, t in neighbors.tokens.items()}


def _diversity(
    keywords: Sequence[Sequence[str]],
    sets_a: dict[str, frozenset[str]],
    sets_b: dict[str, frozenset[str]],
    denominator: str,
) -> DiversityResult:
    """Share of keywords whose top-k neighborhoods in the two models are disjoint.

    A keyword token not in a model's ``_top_sets`` is out of that model's
    vocabulary or has a zero vector.  Multi-token keywords and keywords out
    of either vocabulary are skipped and counted.  Keywords whose
    neighborhoods are empty in both models are skipped so that comparing a
    model with itself always yields zero.
    """
    result = DiversityResult(
        n_total=len(keywords), n_evaluated=0, n_disjoint=0, denominator=denominator,
    )
    for tokens in keywords:
        if len(tokens) != 1:
            result.n_skipped_multiword += 1
            continue
        set_a = sets_a.get(tokens[0])
        set_b = sets_b.get(tokens[0])
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
    keywords: Sequence[Sequence[str]],
    k: int,
    denominator: str = "evaluated",
) -> dict[tuple[str, str], DiversityResult]:
    """Diversity of every unordered model pair, computed once and mirrored;
    zero diagonal.

    ``neighbor_maps`` holds one neighbor map of the ``keyword_queries`` per
    model name, of capacity >= k; pairs follow its key order.
    """
    if len(neighbor_maps) < 2:
        raise ValueError("diversity needs at least two models")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if denominator not in DENOMINATOR_POLICIES:
        raise ValueError(f"unknown denominator policy {denominator!r}")
    sets = {name: _top_sets(neighbors, k) for name, neighbors in neighbor_maps.items()}
    names = list(neighbor_maps)
    out: dict[tuple[str, str], DiversityResult] = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            res = _diversity(keywords, sets[a], sets[b], denominator)
            out[(a, b)] = res
            out[(b, a)] = res
    return out


def relational_coverage(
    pairs: Mapping[str, Sequence[tuple[Sequence[str], Sequence[str]]]],
    k: int,
    neighbors: NeighborMap,
    oov_policy: str = "miss",
) -> dict[str, RelationalResult]:
    """Relational coverage of one model, one result per relation type in ``pairs``.

    ``pairs`` maps each relation type to its pairs, each the descriptor's
    tokens and the concept's tokens; a relation with no pairs gets a result
    with ``n_pairs`` 0.  A pair counts as found when the concept's token is
    among the descriptor's top-k neighbor tokens, read from ``neighbors``,
    the neighbor map of the descriptors' ``keyword_queries`` (capacity
    >= k).  A descriptor of more than one token, or not in the map (missing
    from the vocabulary or a zero vector), is out of vocabulary; such
    descriptors count as misses under the default policy, keeping n at the
    full pair count, and the ``skip`` policy removes them from the
    denominator instead.  A concept of more than one token is never found.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if oov_policy not in OOV_POLICIES:
        raise ValueError(f"unknown oov policy {oov_policy!r}")
    sets = _top_sets(neighbors, k)
    results: dict[str, RelationalResult] = {}
    for relation, rel_pairs in pairs.items():
        res = results[relation] = RelationalResult(
            n_pairs=len(rel_pairs), n_found=0, n_oov_descriptors=0, oov_policy=oov_policy,
        )
        for descriptor, concept in rel_pairs:
            top = sets.get(descriptor[0]) if len(descriptor) == 1 else None
            if top is None:
                res.n_oov_descriptors += 1
            elif len(concept) == 1 and concept[0] in top:
                res.n_found += 1
    return results
