import random

import pytest
from hypothesis import given, settings, strategies as st

from embeval.stringsim import (
    VocabIndex,
    best_match,
    edit_distance_sub2,
    ratio,
    scan_match,
)
from oracles import dp_edit_distance_sub2, ratio_oracle


def test_distance_identity():
    assert edit_distance_sub2("abc", "abc") == 0
    assert edit_distance_sub2("", "") == 0


def test_distance_pure_insertion():
    assert edit_distance_sub2("", "ab") == 2
    assert edit_distance_sub2("ab", "") == 2


def test_distance_kitten_sitting():
    # full DP table with substitution cost 2 gives 5
    assert dp_edit_distance_sub2("kitten", "sitting") == 5
    assert edit_distance_sub2("kitten", "sitting") == 5


def test_ratio_identity():
    assert ratio("haus", "haus") == 1.0
    assert ratio("", "") == 1.0


def test_ratio_kitten_sitting():
    assert ratio("kitten", "sitting") == pytest.approx(8 / 13)


def test_ratio_soziale_sozial():
    assert edit_distance_sub2("soziale", "sozial") == 1
    assert ratio("soziale", "sozial") == pytest.approx(12 / 13)


def _random_string(rng: random.Random, max_len: int = 20) -> str:
    alphabet = "abcdefgßüöä日本語 xyz"
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, max_len + 1)))


def test_oracle_equivalence_random_pairs():
    rng = random.Random(12345)
    for _ in range(2000):
        a = _random_string(rng)
        b = _random_string(rng)
        d = dp_edit_distance_sub2(a, b)
        assert edit_distance_sub2(a, b) == d
        assert ratio(a, b) == ratio_oracle(a, b)


def test_symmetry_and_equality_iff_one():
    rng = random.Random(7)
    for _ in range(500):
        a = _random_string(rng, 12)
        b = _random_string(rng, 12)
        assert edit_distance_sub2(a, b) == edit_distance_sub2(b, a)
        assert ratio(a, b) == ratio(b, a)
        assert (ratio(a, b) == 1.0) == (a == b)


def test_length_bound_from_threshold():
    # ratio(a,b) >= s forces | |a|-|b| | <= (1-s)(|a|+|b|)
    rng = random.Random(99)
    for _ in range(500):
        a = _random_string(rng, 15)
        b = _random_string(rng, 15)
        for s in (0.85, 0.9, 0.95):
            if ratio(a, b) >= s:
                assert abs(len(a) - len(b)) <= (1 - s) * (len(a) + len(b))


def test_best_match_exact_hit_dominates():
    vocab = VocabIndex(["macht", "machte", "nacht"])
    for s in (0.5, 0.9, 1.0):
        m = best_match("macht", vocab, s)
        assert m is not None
        assert m.matched_vocab_token == "macht"
        assert m.ratio == 1.0


def test_best_match_soziale_fixture():
    vocab = VocabIndex(["sozial", "macht"])
    m = best_match("soziale", vocab, 0.9)
    assert m is not None
    assert m.matched_vocab_token == "sozial"
    assert m.ratio == pytest.approx(0.923077, abs=1e-6)
    assert best_match("soziale", vocab, 0.95) is None


def test_best_match_s1_is_exact_lookup_only():
    vocab = VocabIndex(["sozial"])
    assert best_match("soziale", vocab, 1.0) is None


def test_best_match_tie_prefers_lowest_index():
    # both candidates have ratio 0.8 against "ab"
    assert ratio("ab", "abb") == ratio("ab", "aab") == 0.8
    first = best_match("ab", VocabIndex(["abb", "aab"]), 0.7)
    second = best_match("ab", VocabIndex(["aab", "abb"]), 0.7)
    assert first.matched_vocab_token == "abb"
    assert second.matched_vocab_token == "aab"


def test_best_match_rejects_bad_threshold():
    vocab = VocabIndex(["a"])
    with pytest.raises(ValueError):
        best_match("a", vocab, 0.0)
    with pytest.raises(ValueError):
        best_match("a", vocab, 1.5)


def _random_vocab(rng: random.Random, n: int) -> list[str]:
    alphabet = "abcdefghü"
    out = []
    seen = set()
    while len(out) < n:
        w = "".join(rng.choice(alphabet) for _ in range(rng.randrange(3, 10)))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def test_pruned_equals_unpruned_scan():
    rng = random.Random(2024)
    for _ in range(20):
        vocab = VocabIndex(_random_vocab(rng, 300))
        for s in (0.9, 0.95):
            query = "".join(rng.choice("abcdefghü") for _ in range(rng.randrange(3, 10)))
            assert best_match(query, vocab, s) == scan_match(query, vocab, s)


@settings(max_examples=400, deadline=None)
@given(
    vocab=st.lists(st.text(alphabet="abäß", min_size=1, max_size=9), min_size=1, max_size=40),
    query=st.text(alphabet="abäß", min_size=1, max_size=9),
    s=st.sampled_from([0.5, 0.6, 0.75, 0.8, 0.875, 0.9, 0.95, 1.0]) | st.floats(0.05, 1.0),
)
def test_pruned_equals_unpruned_scan_at_any_threshold(vocab, query, s):
    # small alphabets put many candidates one substitution or one indel away,
    # at thresholds where whole length buckets are skipped
    assert best_match(query, VocabIndex(vocab), s) == scan_match(query, VocabIndex(vocab), s)
