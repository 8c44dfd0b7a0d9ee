import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from embeval.stringsim import (
    VocabIndex,
    _bucket_lcs,
    best_match,
    edit_distance_sub2,
    ratio,
)
from oracles import dp_edit_distance_sub2, ratio_oracle, scan_match


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


def test_vocab_index_rejects_a_repeated_token():
    # the first token that repeats is named, whichever repeat comes first
    with pytest.raises(ValueError, match="'macht' repeats"):
        VocabIndex(["macht", "armut", "armut", "macht"])


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


# Non-ASCII, astral (one code point, two UTF-16 units) and NUL characters,
# and a lone surrogate: each is one code point to both kernels.
_CHARS = st.sampled_from(["a", "b", "ä", "ß", "\U0001d518", "\x00", "\ud800"])
_THRESHOLDS = st.sampled_from([0.5, 0.6, 0.75, 0.8, 0.875, 0.9, 0.95, 1.0]) | st.floats(0.05, 1.0)


@st.composite
def _near_words(draw, base, n):
    """n words a few deletions, insertions or substitutions away from base."""
    words = []
    for _ in range(n):
        word = list(base)
        for _ in range(draw(st.integers(0, 4))):
            op = draw(st.integers(0, 2))
            pos = draw(st.integers(0, len(word)))
            if op == 0 and pos < len(word):
                del word[pos]
            elif op == 1:
                word.insert(pos, draw(_CHARS))
            elif pos < len(word):
                word[pos] = draw(_CHARS)
        words.append("".join(word))
    return words


@st.composite
def _scan_cases(draw):
    """(vocab, query): many short words, or a few of 62 to 130 code points, so
    both the uint64 lanes (up to 63) and the Python-int path (above) run."""
    if draw(st.booleans()):
        alphabet = draw(st.sampled_from(["ab", "abäß", "aß\U0001d518\x00"]))
        word = st.text(alphabet=alphabet, max_size=9)
        return draw(st.lists(word, min_size=1, max_size=40, unique=True)), draw(word)
    base = draw(st.text(alphabet=_CHARS, min_size=62, max_size=130))
    query, *vocab = draw(_near_words(base, draw(st.integers(2, 6))))
    return list(dict.fromkeys(vocab)), query


@settings(max_examples=400, deadline=None)
@given(case=_scan_cases(), s=_THRESHOLDS)
# a bucket of more than 256 distinct code points takes wider column indices
@example(case=([chr(0x100 + i) + chr(0x300 - i) for i in range(300)], chr(0x300 - 7) + "x"), s=0.5)
def test_pruned_equals_unpruned_scan_at_any_threshold(case, s):
    # small alphabets put many candidates one substitution or one indel away,
    # at thresholds where whole length buckets are skipped; near words share
    # ratios at different indices and in different buckets
    vocab, query = case
    assert best_match(query, VocabIndex(vocab), s) == scan_match(query, VocabIndex(vocab), s)


@settings(max_examples=300, deadline=None)
@given(
    token=st.text(alphabet=_CHARS, max_size=12) | st.text(alphabet=_CHARS, min_size=62, max_size=130),
    length=st.integers(1, 12) | st.integers(62, 130),
    data=st.data(),
)
def test_bucket_lcs_gives_edit_distance(token, length, data):
    bucket = data.draw(st.lists(
        st.text(alphabet=_CHARS, min_size=length, max_size=length), min_size=1, max_size=5, unique=True
    ))
    vocab = VocabIndex(bucket)
    lcs = _bucket_lcs(token, vocab, length)
    candidates = [vocab.tokens[i] for i in vocab.by_length[length]]
    assert len(lcs) == len(candidates)
    for cand, common in zip(candidates, lcs.tolist()):
        assert len(token) + length - 2 * common == edit_distance_sub2(token, cand)


# NUL, ASCII, Latin-1, a lone surrogate, the last BMP code point and two astral ones
_COLUMN_CHARS = st.sampled_from(["\x00", "a", "ß", "\ud800", "\uffff", "\U0001d518", "\U0010ffff"]) | st.characters()


@st.composite
def _buckets(draw):
    """(tokens, length): a few tokens of one length, or 257 to 400 tokens of
    two code points, BMP then astral, whose alphabet needs uint16 indices."""
    if draw(st.booleans()):
        length = draw(st.integers(1, 8))
        word = st.text(alphabet=_COLUMN_CHARS, min_size=length, max_size=length)
        return draw(st.lists(word, min_size=1, max_size=30, unique=True)), length
    n = draw(st.integers(257, 400))
    return [chr(0x100 + i) + chr(0x10000 + 7 * i) for i in range(n)], 2


@settings(max_examples=200, deadline=None)
@given(_buckets())
def test_columns_equal_the_unique_construction(case):
    tokens, length = case
    vocab = VocabIndex(tokens)
    alphabet, codes = vocab.columns(length)
    points = np.array([vocab.tokens[i] for i in vocab.by_length[length]], dtype=f"<U{length}").view(np.uint32)
    expected_alphabet, inverse = np.unique(points, return_inverse=True)
    expected_codes = inverse.astype(np.min_scalar_type(len(expected_alphabet) - 1)).reshape(-1, length).T
    assert alphabet.dtype == expected_alphabet.dtype
    assert np.array_equal(alphabet, expected_alphabet)
    assert codes.dtype == expected_codes.dtype
    assert codes.flags.c_contiguous
    assert np.array_equal(codes, expected_codes)


def test_best_match_tie_across_buckets_prefers_lowest_index():
    # two deletions (8/10) and three insertions (12/15) give the same float
    assert ratio("abcdef", "abcd") == ratio("abcdef", "abcdefxyz") == 0.8
    for s in (0.8, 0.5):
        assert best_match("abcdef", VocabIndex(["abcdefxyz", "abcd"]), s).matched_vocab_token == "abcdefxyz"
        assert best_match("abcdef", VocabIndex(["abcd", "abcdefxyz"]), s).matched_vocab_token == "abcd"


def test_best_match_keeps_a_ratio_equal_to_the_threshold():
    assert best_match("ab", VocabIndex(["abb"]), 0.8) == scan_match("ab", VocabIndex(["abb"]), 0.8)
    assert best_match("ab", VocabIndex(["abb"]), 0.8).ratio == 0.8
    long_query = "ab" * 40
    m = best_match(long_query, VocabIndex([long_query + "b"]), 160 / 161)
    assert m is not None and m.ratio == 160 / 161
