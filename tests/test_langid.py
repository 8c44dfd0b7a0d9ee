import builtins
import math

import pytest

import embeval.langid as langid
from embeval.langid import TrigramClassifier, _trigrams, classify_line_language, default_classifier
from oracles import classify_oracle, language_values, trigram_profiles_oracle


def _read_fixture(path):
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        lang, text = line.split("\t")
        rows.append((lang, text))
    return rows


def test_german_example():
    lang, confidence = classify_line_language("der soziale wandel in der gesellschaft")
    assert lang == "de"
    assert confidence > 0.9


def test_english_example():
    lang, confidence = classify_line_language("the social structure of modern societies")
    assert lang == "en"
    assert confidence > 0.9


def test_no_letters_is_unknown():
    assert classify_line_language("123 456") == ("unknown", 0.0)
    assert classify_line_language("42, (17)!") == ("unknown", 0.0)


def test_below_threshold_is_unknown():
    # an implausibly high threshold forces the unknown tag
    lang, confidence = classify_line_language("taxi", threshold=1.1)
    assert lang == "unknown"
    assert 0.0 <= confidence <= 1.0


def test_fixture_accuracy_at_least_95(langid_fixture_path):
    rows = _read_fixture(langid_fixture_path)
    assert len(rows) == 200
    correct = sum(
        1 for lang, text in rows if classify_line_language(text)[0] == lang
    )
    assert correct / len(rows) >= 0.95


def test_fixture_accuracy_survives_lowercasing(langid_fixture_path):
    # the pipeline re-classifies already-lowercased corpus lines on reruns
    rows = _read_fixture(langid_fixture_path)
    correct = sum(
        1 for lang, text in rows if classify_line_language(text.lower())[0] == lang
    )
    assert correct / len(rows) >= 0.95


def test_classifier_is_extensible():
    clf = TrigramClassifier(
        {
            "aa": "aaa aaaa aa aaa aaaa aaa aa",
            "bb": "bbb bbbb bb bbb bbbb bbb bb",
        }
    )
    assert clf.classify("aaaa aaa")[0] == "aa"
    assert clf.classify("bbbb bbb")[0] == "bb"


def test_classifier_needs_two_languages():
    for seeds in ({"de": "nur eine"}, {"de": "eine", "en": "two", "fr": "trois"}):
        with pytest.raises(ValueError, match="exactly two languages"):
            TrigramClassifier(seeds)


def test_tie_goes_to_the_first_language():
    clf = TrigramClassifier({"bb": "abc abd", "aa": "abc abd"})
    assert clf.classify("abc") == ("aa", 0.5)
    assert clf.classify("xyz") == classify_oracle(clf, "xyz") == ("aa", 0.5)


def test_default_classifier_is_cached():
    assert default_classifier() is default_classifier()


def _neumaier_sum(values, start=0):
    """The compensated float sum of the builtin ``sum`` since Python 3.12."""
    total, c = float(start), 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


# Mixed lines whose scores are close enough that a compensated sum moves the
# confidence bits.
@pytest.mark.parametrize("line", ["and und", "die the", "social die of gesellschaft", "the of gesellschaft of"])
def test_classify_does_not_depend_on_the_builtin_sum(monkeypatch, line):
    clf = default_classifier()
    values = language_values(clf, "de", _trigrams(line))
    fold = 0.0
    for v in values:
        fold += v
    assert _neumaier_sum(values) != fold
    expected = classify_oracle(clf, line)
    with monkeypatch.context() as mp:
        mp.setattr(builtins, "sum", _neumaier_sum)
        got = clf.classify(line)
    assert got == expected


_SEEDS = {
    "aa": "aaa aaaa aa aaa aab",
    "bb": "bbb bbbb bb bbb bba",
}


def test_pair_tables_hold_each_languages_profile():
    clf = TrigramClassifier(_SEEDS)
    profiles = trigram_profiles_oracle(_SEEDS)
    grams = set().union(*(logprob for logprob, _ in profiles.values())) | {"zzz"}
    # one table: the first language's values are the real parts, the second's the imaginary
    assert clf.languages == ["aa", "bb"] and not hasattr(clf, "_pairs")
    for lang, (logprob, unseen) in profiles.items():
        expected = [logprob.get(g, unseen) for g in sorted(grams)]
        assert language_values(clf, lang, sorted(grams)) == expected


def test_memo_stays_within_its_bound_and_is_all_classify_changes(monkeypatch):
    monkeypatch.setattr(langid, "_MEMO_ENTRIES", 5)
    clf = TrigramClassifier(_SEEDS)
    state = dict(vars(clf))
    table = dict(clf._table)
    lines = ["aaa aab", "bbb bb a", "a b c d e f g h i j k", "bba bbb aaa aaa", "aa bb cc aa bb cc", "c"]
    sizes = []
    for line in lines * 2:
        assert clf.classify(line) == classify_oracle(clf, line)
        sizes.append(len(clf._memo))
    assert max(sizes) == 5  # full, then cleared: a line of 11 new words fills it twice over
    # nothing but the memo changes: no table is built or replaced after __init__
    assert vars(clf).keys() == state.keys() and all(vars(clf)[k] is v for k, v in state.items())
    assert clf._table == table
