import pytest

from embeval.numwords import MAX_NUMBER, number_to_words


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, "zero"),
        (5, "five"),
        (13, "thirteen"),
        (20, "twenty"),
        (21, "twenty-one"),
        (42, "forty-two"),
        (100, "one hundred"),
        (101, "one hundred one"),
        (115, "one hundred fifteen"),
        (342, "three hundred forty-two"),
        (1000, "one thousand"),
        (1001, "one thousand one"),
        (21000, "twenty-one thousand"),
        (999999, "nine hundred ninety-nine thousand nine hundred ninety-nine"),
    ],
)
def test_english(n, expected):
    assert number_to_words(n, "en") == expected


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, "null"),
        (1, "eins"),
        (5, "fünf"),
        (7, "sieben"),
        (16, "sechzehn"),
        (17, "siebzehn"),
        (21, "einundzwanzig"),
        (30, "dreißig"),
        (42, "zweiundvierzig"),
        (100, "einhundert"),
        (101, "einhunderteins"),
        (121, "einhunderteinundzwanzig"),
        (200, "zweihundert"),
        (1000, "eintausend"),
        (1001, "eintausendeins"),
        (2345, "zweitausenddreihundertfünfundvierzig"),
        (21000, "einundzwanzigtausend"),
        (101000, "einhunderteintausend"),
        (100000, "einhunderttausend"),
        (999999, "neunhundertneunundneunzigtausendneunhundertneunundneunzig"),
    ],
)
def test_german(n, expected):
    assert number_to_words(n, "de") == expected


def test_german_never_hyphenates():
    for n in (21, 42, 999999):
        assert "-" not in number_to_words(n, "de")


def test_range_limits():
    number_to_words(MAX_NUMBER, "de")
    with pytest.raises(ValueError):
        number_to_words(MAX_NUMBER + 1, "de")
    with pytest.raises(ValueError):
        number_to_words(-1, "en")


def test_unknown_language():
    with pytest.raises(ValueError):
        number_to_words(5, "fr")
