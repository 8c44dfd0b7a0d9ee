import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import embeval.metrics as metrics_module
from embeval.metrics import (
    coverage,
    diversity_matrix,
    keyword_queries,
    match_map,
    relational_coverage,
)
from embeval.corpus import DASH_CHARS, HYPHEN_CHARS
from embeval.neighbors import NeighborMap, cache_load, cache_store, neighbor_map
from embeval.report import pct
from embeval.stringsim import VocabIndex, best_match
from embeval.cli import relation_pairs
from embeval.thesaurus import Thesaurus, keyword_tokens
from conftest import (
    anchored,
    coverage_at,
    descriptor_queries,
    diversity_at,
    make_model,
    pair_tokens,
    random_model,
    read_neighbors,
    relational_at,
    top_tokens,
)
from oracles import coverage_oracle, naive_coverage_count, naive_diversity, naive_relational


def test_keyword_tokens_lowercases_and_splits_hyphens():
    assert keyword_tokens("Nord-Süd-Konflikt") == ("nord", "süd", "konflikt")
    assert keyword_tokens("soziale Ungleichheit") == ("soziale", "ungleichheit")
    assert keyword_tokens("Macht", lowercase=False) == ("Macht",)


def test_keyword_covered_exact():
    model = make_model("m", ["macht"], [[1.0, 0.0]])
    for s in (0.9, 1.0):
        assert coverage_at(model, ["macht"], s).n_covered == 1


def test_keyword_covered_compound_threshold():
    model = make_model("m", ["sozial", "ungleichheit"], [[1, 0], [0, 1]])
    assert coverage_at(model, ["soziale ungleichheit"], 1.0).n_covered == 0
    assert coverage_at(model, ["soziale ungleichheit"], 0.9).n_covered == 1
    match = match_map(VocabIndex(model.vocab), [("soziale", "ungleichheit")], 0.9)["soziale"]
    assert match.matched_vocab_token == "sozial"
    assert match.ratio == pytest.approx(12 / 13)


def test_keyword_covered_empty_warns(caplog):
    # the metric counts an empty keyword as not covered; cli warns about its label
    model = make_model("m", ["macht"], [[1.0, 0.0]])
    with caplog.at_level("WARNING"):
        assert coverage_at(model, [" - "], 0.9).n_covered == 0
    assert "no tokens" not in caplog.text


def test_coverage_superset_is_100():
    model = make_model("m", ["a", "b", "c"], np.eye(3))
    result = coverage_at(model, ["a", "b", "c"], 1.0)
    assert result.n_covered == 3
    assert pct(result.c) == "100.00"


def test_coverage_three_keyword_fixture():
    model = make_model("m", ["sozial", "ungleichheit", "macht"], np.eye(3))
    labels = ["soziale Ungleichheit", "Macht", "Armut"]
    at_1 = coverage_at(model, labels, 1.0)
    at_09 = coverage_at(model, labels, 0.9)
    assert (at_1.n_covered, at_1.n_keywords) == (1, 3)
    assert (at_09.n_covered, at_09.n_keywords) == (2, 3)
    assert pct(at_1.c) == "33.33"
    assert pct(at_09.c) == "66.67"


def test_coverage_hit_records():
    model = make_model("m", ["sozial", "macht"], np.eye(2))
    assert coverage_at(model, ["Macht", "soziale"], 0.9).n_covered == 2
    matches = match_map(VocabIndex(model.vocab), [("macht",), ("soziale",)], 0.9)
    assert matches["macht"].ratio == 1.0
    assert matches["soziale"].ratio == pytest.approx(12 / 13)


def test_coverage_monotone_in_s():
    rng = np.random.default_rng(21)
    words = ["macht", "staat", "sozial", "armut", "kultur", "wandel", "bildung"]
    for trial in range(20):
        size = int(rng.integers(3, len(words) + 1))
        vocab = list(rng.choice(words, size=size, replace=False))
        model = make_model("m", vocab, rng.standard_normal((size, 4)))
        labels = [w + suffix for w in words for suffix in ("", "e")][: int(rng.integers(3, 12))]
        previous = None
        for s in (0.85, 0.9, 0.95, 1.0):
            c = coverage_at(model, labels, s).c
            if previous is not None:
                assert c <= previous + 1e-12
            previous = c


def test_coverage_matches_naive_enumeration():
    rng = np.random.default_rng(22)
    vocab = ["macht", "Macht", "herrschaft", "Staat", "sozial", "armut"]
    model = make_model("m", vocab, rng.standard_normal((6, 3)))
    labels = ["Macht", "mächte", "soziale Ungleichheit", "Armut", "staaten", "Staat", "xyz"]
    for lowercase in (True, False):
        for s in (0.8, 0.9, 0.95, 1.0):
            assert coverage_at(model, labels, s, lowercase).n_covered == naive_coverage_count(
                vocab, labels, s, lowercase
            )


# upper case letters too, so the vocabulary holds words that differ only in case
_WORD = st.text(alphabet="abcäßéBÄ", min_size=1, max_size=7)


@st.composite
def _coverage_cases(draw):
    """A vocabulary with duplicates, labels of 1-3 tokens and 1-4 thresholds."""
    vocab = draw(st.lists(_WORD, min_size=1, max_size=12))

    def near(word):
        pos = draw(st.integers(0, len(word)))
        op = draw(st.sampled_from(["insert", "delete", "substitute"]))
        char = draw(st.sampled_from("abcäßé"))
        if op == "insert":
            return word[:pos] + char + word[pos:]
        return word[:pos] + (char if op == "substitute" else "") + word[pos + 1 :]

    token = st.one_of(
        st.sampled_from(vocab),
        st.sampled_from(vocab).map(near),
        _WORD,
        st.just("qqq"),  # misses at every threshold
    )
    # a shared pool, so tokens repeat across labels
    pool = draw(st.lists(token.map(lambda w: w or "x"), min_size=1, max_size=8))
    labels = []
    for _ in range(draw(st.integers(1, 8))):
        tokens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        if draw(st.booleans()):
            tokens = [t.capitalize() for t in tokens]
        labels.append(draw(st.sampled_from([" ", "-"])).join(tokens))
    thresholds = st.sampled_from([0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]) | st.floats(0.3, 1.0)
    s_values = draw(st.lists(thresholds, min_size=1, max_size=4))
    return vocab, labels, s_values


@settings(max_examples=300, deadline=None)
@given(case=_coverage_cases(), lowercase=st.booleans())
def test_coverage_over_one_map_equals_per_threshold_oracle(case, lowercase):
    vocab, labels, s_values = case
    index = VocabIndex(vocab)
    distinct = sorted(set(vocab))
    model = make_model("m", distinct, np.eye(len(distinct)))
    keywords = [keyword_tokens(label, lowercase) for label in labels]
    matches = match_map(index, keywords, min(s_values))
    for s in s_values:
        got = coverage(keywords, s, matches=matches)
        want, hits = coverage_oracle(model, labels, s, lowercase=lowercase, index=index)
        assert (got.n_keywords, got.n_covered) == (want.n_keywords, want.n_covered)
        for records in hits.values():
            for token, vocab_token, r in records:
                m = matches[token]
                assert (m.keyword_token, m.matched_vocab_token, m.ratio) == (token, vocab_token, r)


def test_match_map_matches_each_reachable_token_once(monkeypatch):
    calls = []

    def counting(token, index, s):
        calls.append(token)
        return best_match(token, index, s)

    monkeypatch.setattr(metrics_module, "best_match", counting)
    model = make_model("m", ["macht", "staat", "sozial"], np.eye(3))
    labels = ["Macht", "Staat-Macht", "qqq Macht", "qqq Sozial", "xxx-yyy", "Soziale Macht"]
    keywords = [keyword_tokens(label) for label in labels]
    matches = match_map(VocabIndex(model.vocab), keywords, 0.9)
    # "sozial" and "yyy" only follow a miss
    assert calls == ["macht", "staat", "qqq", "xxx", "soziale"]
    assert set(matches) == set(calls)
    covered = {s: coverage(keywords, s, matches=matches).n_covered
               for s in (1.0, 0.95, 0.9)}
    assert covered == {1.0: 2, 0.95: 2, 0.9: 3}
    assert len(calls) == 5


def test_coverage_rejects_a_map_lacking_a_token():
    model = make_model("m", ["macht"], [[1.0]])
    with pytest.raises(ValueError, match="lacks the keyword token 'macht'"):
        coverage([("macht",)], 0.9, matches={})


def _diversity_plant():
    """Two models where keyword "a" shares a neighbor and "b" does not."""
    vocab = ["a", "b", "x", "y", "z", "p", "q", "r", "t"]
    model_a = make_model("A", vocab, [
        [1, 0], [0, 1],
        anchored(0.99, 0), anchored(0.98, 0), anchored(0.5, 0),
        anchored(0.99, 1), anchored(0.98, 1), anchored(0.30, 1), anchored(0.20, 1),
    ])
    model_b = make_model("B", vocab, [
        [1, 0], [0, 1],
        anchored(0.5, 0), anchored(0.99, 0), anchored(0.98, 0),
        anchored(0.30, 1), anchored(0.20, 1), anchored(0.99, 1), anchored(0.98, 1),
    ])
    return model_a, model_b


def test_diversity_planted_fixture():
    model_a, model_b = _diversity_plant()
    # sanity: the planted neighborhoods are what we think they are
    assert set(top_tokens(model_a, "a", 2)) == {"x", "y"}
    assert set(top_tokens(model_b, "a", 2)) == {"y", "z"}
    assert set(top_tokens(model_a, "b", 2)) == {"p", "q"}
    assert set(top_tokens(model_b, "b", 2)) == {"r", "t"}

    result = diversity_at(model_a, model_b, ["a", "b"], 2)
    assert result.n_evaluated == 2
    assert result.n_disjoint == 1
    assert pct(result.d) == "50.00"


def test_diversity_self_is_zero():
    rng = np.random.default_rng(23)
    model = random_model(rng, "m", 30, 4)
    result = diversity_at(model, model, list(model.vocab[:10]), 5)
    assert result.n_disjoint == 0
    assert pct(result.d) == "0.00"


def test_diversity_is_symmetric():
    model_a, model_b = _diversity_plant()
    ab = diversity_at(model_a, model_b, ["a", "b"], 2)
    ba = diversity_at(model_b, model_a, ["a", "b"], 2)
    assert ab.d == ba.d
    assert ab.n_evaluated == ba.n_evaluated


def test_diversity_skips_multiword_and_oov():
    model_a, model_b = _diversity_plant()
    labels = ["a", "b", "soziale Ungleichheit", "missing"]
    result = diversity_at(model_a, model_b, labels, 2)
    assert result.n_total == 4
    assert result.n_evaluated == 2
    assert result.n_skipped_multiword == 1
    assert result.n_skipped_oov == 1


def test_diversity_denominator_policies():
    model_a, model_b = _diversity_plant()
    labels = ["a", "b", "missing"]
    evaluated = diversity_at(model_a, model_b, labels, 2, denominator="evaluated")
    total = diversity_at(model_a, model_b, labels, 2, denominator="total")
    assert pct(evaluated.d) == "50.00"
    assert pct(total.d) == "33.33"
    assert dataclasses.replace(evaluated, denominator="total").d == total.d
    assert dataclasses.replace(total, denominator="evaluated").d == evaluated.d


def test_diversity_anti_monotone_in_k():
    rng = np.random.default_rng(24)
    for trial in range(10):
        model_a = random_model(rng, "A", 40, 4)
        model_b = random_model(rng, "B", 40, 4)
        labels = list(model_a.vocab[:15])
        previous = None
        for k in (1, 5, 10, 50):
            d = diversity_at(model_a, model_b, labels, k).d
            if previous is not None:
                assert d <= previous + 1e-12
            previous = d


def _mixed_case_models(seed: int, names: str, n_stems: int = 15, dim: int = 4):
    """Models over one vocabulary in which some tokens differ only in case
    ("w03" and "W03"), and labels naming each stem in either case."""
    rng = np.random.default_rng(seed)
    vocab, labels = [], []
    for i in range(n_stems):
        stem = f"w{i:02d}"
        # the lower case form, the upper case form or both
        forms = [[stem], [stem.upper()], [stem, stem.upper()]][rng.integers(3)]
        vocab += forms
        labels.append(stem.upper() if rng.integers(2) else stem)
    models = [make_model(name, vocab, rng.standard_normal((len(vocab), dim))) for name in names]
    return models, labels


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lowercase=st.booleans())
def test_diversity_matches_naive_enumeration(seed, lowercase):
    (model_a, model_b), labels = _mixed_case_models(seed, "AB")
    labels += ["nicht da", "fehlt"]
    for k in (1, 3, 7):
        result = diversity_at(model_a, model_b, labels, k, lowercase)
        n_eval, n_disj = naive_diversity(model_a, model_b, labels, k, lowercase)
        assert (result.n_evaluated, result.n_disjoint) == (n_eval, n_disj)


def test_diversity_matrix_symmetry_and_diagonal_convention():
    rng = np.random.default_rng(26)
    models = [random_model(rng, f"m{i}", 25, 4) for i in range(3)]
    keywords = [keyword_tokens(label) for label in models[0].vocab[:10]]
    maps = {m.name: read_neighbors(m, keyword_queries(keywords), 5) for m in models}
    matrix = diversity_matrix(maps, keywords, 5)
    assert len(matrix) == 6  # 3 unordered pairs, mirrored
    for a in models:
        for b in models:
            if a.name != b.name:
                assert matrix[(a.name, b.name)].d == matrix[(b.name, a.name)].d


def test_neighbor_tokens_are_lowercased_once_for_every_k():
    neighbors = NeighborMap(3, {"a": ("x", "y", "z"), "b": ("X", "y", "Ä")})
    lowered = neighbors.lowered()
    assert lowered.k == neighbors.k
    # a query whose neighbors are lowercase already keeps its tuple
    assert lowered.tokens["a"] is neighbors.tokens["a"]
    assert lowered.tokens["b"] == ("x", "y", "ä")
    small = metrics_module._top_sets(lowered, 1)
    large = metrics_module._top_sets(lowered, 3)
    assert small == {"a": {"x"}, "b": {"x"}}
    assert large == {"a": {"x", "y", "z"}, "b": {"x", "y", "ä"}}
    # every k reads the same lowercased strings
    assert next(iter(small["b"])) is lowered.tokens["b"][0]
    assert metrics_module._top_sets(neighbors, 3)["b"] == {"X", "y", "Ä"}


def test_diversity_from_cache_equals_fresh(tmp_path):
    model_a, model_b = _diversity_plant()
    fresh = diversity_at(model_a, model_b, ["a", "b"], 2)
    maps = {}
    for model in (model_a, model_b):
        path = tmp_path / f"{model.name}.tsv"
        cache_store(path, model, neighbor_map(model, ["a", "b"], 2))
        maps[model.name] = cache_load(path, model, 2).lowered()
    cached = diversity_matrix(maps, [("a",), ("b",)], 2)[("A", "B")]
    assert (cached.n_evaluated, cached.n_disjoint, cached.d) == (
        fresh.n_evaluated, fresh.n_disjoint, fresh.d,
    )


def test_diversity_matrix_from_cache_equals_fresh(tmp_path):
    rng = np.random.default_rng(30)
    models = [random_model(rng, f"m{i}", 30, 4) for i in range(3)]
    labels = list(models[0].vocab[:12])
    keywords = [keyword_tokens(label) for label in labels]
    fresh = diversity_matrix({m.name: neighbor_map(m, labels, 4) for m in models}, keywords, 4)

    maps = {}
    for model in models:
        path = tmp_path / f"{model.name}.tsv"
        cache_store(path, model, neighbor_map(model, labels, 4))
        maps[model.name] = cache_load(path, model, 4)
    cached = diversity_matrix(maps, keywords, 4)

    assert set(cached) == set(fresh)
    for key in fresh:
        assert (cached[key].n_evaluated, cached[key].n_disjoint, cached[key].d) == (
            fresh[key].n_evaluated, fresh[key].n_disjoint, fresh[key].d,
        )


def test_coverage_empty_keyword_list():
    model = make_model("m", ["a"], [[1.0, 0.0]])
    result = coverage_at(model, [], 1.0)
    assert result.n_keywords == 0
    assert result.c == 0.0


def _relation_plant():
    """Model where "herrschaft" sits at rank 3 of "macht"'s neighborhood."""
    model = make_model("m", ["macht", "staat", "politik", "herrschaft", "kultur"], [
        [1, 0],
        anchored(0.99, 0), anchored(0.98, 0), anchored(0.97, 0), anchored(0.20, 0),
    ])
    pairs = {"related": [("Macht", "Herrschaft")]}
    return model, pairs


def test_relational_planted_rank_flip():
    model, pairs = _relation_plant()
    low = relational_at(model, pairs, 2)["related"]
    high = relational_at(model, pairs, 10)["related"]
    assert low.n_found == 0
    assert high.n_found == 1
    assert pct(low.r) == "0.00"
    assert pct(high.r) == "100.00"


def test_relational_oov_policies():
    model, _ = _relation_plant()
    pairs = {"related": [("Macht", "Herrschaft"), ("Unbekannt", "Staat")]}
    miss = relational_at(model, pairs, 10, oov_policy="miss")["related"]
    assert (miss.n_pairs, miss.n_found, miss.n_oov_descriptors) == (2, 1, 1)
    assert pct(miss.r) == "50.00"
    skip = relational_at(model, pairs, 10, oov_policy="skip")["related"]
    assert pct(skip.r) == "100.00"


def test_relational_monotone_in_k():
    rng = np.random.default_rng(27)
    for trial in range(10):
        model = random_model(rng, "m", 30, 4)
        pairs = {"broader": [(model.vocab[i], model.vocab[j])
                             for i, j in zip(range(0, 10), range(10, 20))]}
        previous = None
        for k in (1, 3, 10, 29):
            r = relational_at(model, pairs, k)["broader"].r
            if previous is not None:
                assert r >= previous - 1e-12
            previous = r


def test_relational_reads_labels_as_keyword_tokens():
    # a general-language model may hold the token "sozial-politik"; the
    # label "Sozial-Politik" is two tokens, as the cleaned corpus writes it
    model = make_model("m", ["sozial-politik", "armut", "macht"],
                       [[1, 0], anchored(0.99, 0), [0, 1]])
    expected = {
        ("Sozial-Politik", "Armut"): (0, 1),  # a two-token descriptor is OOV
        (" Macht ", "Sozial-Politik"): (0, 0),  # a two-token concept is never found
        ("Armut", " Macht "): (1, 0),  # padding is not part of a label
    }
    for (descriptor, concept), (n_found, n_oov) in expected.items():
        res = relational_at(model, {"related": [(descriptor, concept)]}, 2)["related"]
        assert (res.n_found, res.n_oov_descriptors) == (n_found, n_oov), (descriptor, concept)
    pairs = pair_tokens({"related": list(expected)})
    assert descriptor_queries(pairs) == ["macht", "armut"]


@settings(max_examples=200, deadline=None)
@given(label=st.text(alphabet="aBä -" + HYPHEN_CHARS + DASH_CHARS, max_size=8),
       lowercase=st.booleans())
def test_every_metric_reads_a_label_as_one_token_alike(label, lowercase):
    tokens = keyword_tokens(label, lowercase)
    vocab = set(tokens) | {"zz"}
    verbatim = (label.lower() if lowercase else label).strip()
    if verbatim and " " not in verbatim:
        vocab.add(verbatim)  # the label as a token, as in general-language models
    vocab = sorted(vocab)
    model = make_model("m", vocab, np.eye(len(vocab)) + 0.1)
    single = diversity_at(model, model, [label], 1, lowercase).n_skipped_multiword == 0
    assert single == (len(tokens) == 1)
    pairs = {"related": [(label, "zz")]}
    assert single == (relational_at(model, pairs, 1, lowercase)["related"].n_oov_descriptors == 0)
    th = Thesaurus()
    th.add_triple("c1", "prefLabel", label, "de")
    th.add_triple("c2", "prefLabel", "zz", "de")
    th.add_triple("c1", "related", "c2")
    pairs, _, _ = relation_pairs(th, "de", lowercase, single_word_only=True)
    assert single == bool(pairs["related"])


def test_relational_groups_by_relation_type():
    model, _ = _relation_plant()
    pairs = {"related": [("Macht", "Herrschaft")], "narrower": [("Macht", "Staat")]}
    results = relational_at(model, pairs, 10)
    assert set(results) == {"related", "narrower"}
    assert results["related"].n_pairs == 1
    assert results["narrower"].n_pairs == 1


def test_results_independent_of_keyword_order():
    rng = np.random.default_rng(29)
    model_a = random_model(rng, "A", 25, 4)
    model_b = random_model(rng, "B", 25, 4)
    labels = list(model_a.vocab[:10]) + ["zwei wörter", "fehlt"]
    shuffled = list(reversed(labels))
    for s in (0.9, 1.0):
        assert coverage_at(model_a, labels, s).n_covered == coverage_at(model_a, shuffled, s).n_covered
    d1 = diversity_at(model_a, model_b, labels, 4)
    d2 = diversity_at(model_a, model_b, shuffled, 4)
    assert (d1.n_evaluated, d1.n_disjoint) == (d2.n_evaluated, d2.n_disjoint)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lowercase=st.booleans())
def test_relational_matches_naive_enumeration(seed, lowercase):
    (model,), labels = _mixed_case_models(seed, "m")
    n = len(labels)
    pairs = {"broader": [(labels[i], labels[(i * 3 + 1) % n]) for i in range(n)]
             + [("fehlt", labels[0])]}
    for k in (1, 5, 10):
        result = relational_at(model, pairs, k, lowercase)["broader"]
        n_pairs, n_found, n_oov = naive_relational(model, pairs, k, lowercase)["broader"]
        assert (result.n_pairs, result.n_found, result.n_oov_descriptors) == (
            n_pairs, n_found, n_oov,
        )


def test_metrics_read_prefixes_of_a_larger_capacity():
    rng = np.random.default_rng(31)
    model_a = random_model(rng, "A", 30, 4, n_duplicate_rows=3, n_zero_rows=2)
    model_b = random_model(rng, "B", 30, 4, n_duplicate_rows=3, n_zero_rows=2)
    labels = list(model_a.vocab[:12]) + ["zwei wörter", "fehlt"]
    pairs = {"related": [(model_a.vocab[i], model_a.vocab[(i * 7 + 3) % 30]) for i in range(12)]}
    keywords = [keyword_tokens(label) for label in labels]
    maps = {model.name: read_neighbors(model, keyword_queries(keywords), 29)
            for model in (model_a, model_b)}
    tokenized = pair_tokens(pairs)
    rel_map = read_neighbors(model_a, descriptor_queries(tokenized), 29)
    for k in (1, 4, 10, 29):
        fresh = diversity_at(model_a, model_b, labels, k)
        assert diversity_matrix(maps, keywords, k)[("A", "B")] == fresh
        assert relational_coverage(tokenized, k, neighbors=rel_map) == (
            relational_at(model_a, pairs, k)
        )


def test_metrics_reject_a_map_below_capacity():
    model_a, model_b = _diversity_plant()
    small_a = neighbor_map(model_a, ["a", "b"], 1)
    small_b = neighbor_map(model_b, ["a", "b"], 1)
    with pytest.raises(ValueError):
        diversity_matrix({"A": small_a, "B": small_b}, [("a",), ("b",)], 2)
    model, pairs = _relation_plant()
    tokenized = pair_tokens(pairs)
    small = neighbor_map(model, descriptor_queries(tokenized), 2)
    with pytest.raises(ValueError):
        relational_coverage(tokenized, 3, neighbors=small)
