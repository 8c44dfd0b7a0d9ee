"""Spell out base-10 integers (0 to 999,999) as German or English words.

German numerals are single compound words ("zweiundvierzig"); English ones
hyphenate tens-units pairs ("forty-two").
"""

MAX_NUMBER = 999_999

_EN_UNDER_20 = [
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    "sixteen", "seventeen", "eighteen", "nineteen",
]
_EN_TENS = [
    "twenty", "thirty", "forty", "fifty", "sixty", "seventy", "eighty", "ninety",
]

_DE_UNDER_20 = [
    "null", "eins", "zwei", "drei", "vier", "fünf", "sechs", "sieben", "acht",
    "neun", "zehn", "elf", "zwölf", "dreizehn", "vierzehn", "fünfzehn",
    "sechzehn", "siebzehn", "achtzehn", "neunzehn",
]
_DE_TENS = [
    "zwanzig", "dreißig", "vierzig", "fünfzig", "sechzig", "siebzig",
    "achtzig", "neunzig",
]


def _english_under_1000(n: int) -> str:
    parts: list[str] = []
    if n >= 100:
        parts.append(_EN_UNDER_20[n // 100] + " hundred")
        n %= 100
    if n >= 20:
        word = _EN_TENS[n // 10 - 2]
        if n % 10:
            word += "-" + _EN_UNDER_20[n % 10]
        parts.append(word)
    elif n > 0:
        parts.append(_EN_UNDER_20[n])
    return " ".join(parts)


def _english(n: int) -> str:
    if n == 0:
        return "zero"
    parts = []
    if n >= 1000:
        parts.append(_english_under_1000(n // 1000) + " thousand")
        n %= 1000
    if n:
        parts.append(_english_under_1000(n))
    return " ".join(parts)


def _german_under_1000(n: int, final: bool) -> str:
    """German segment below 1000; ``final`` selects "eins" over "ein" for a trailing 1."""
    out = ""
    if n >= 100:
        h = n // 100
        out += ("ein" if h == 1 else _DE_UNDER_20[h]) + "hundert"
        n %= 100
    if n == 0:
        return out
    if n == 1:
        return out + ("eins" if final else "ein")
    if n < 20:
        return out + _DE_UNDER_20[n]
    tens = _DE_TENS[n // 10 - 2]
    unit = n % 10
    if unit == 0:
        return out + tens
    return out + ("ein" if unit == 1 else _DE_UNDER_20[unit]) + "und" + tens


def _german(n: int) -> str:
    if n == 0:
        return "null"
    out = ""
    if n >= 1000:
        out += _german_under_1000(n // 1000, final=False) + "tausend"
        n %= 1000
    if n:
        out += _german_under_1000(n, final=True)
    return out


def number_to_words(n: int, lang: str) -> str:
    """Words for integer ``n`` in the given language ('de' or 'en')."""
    if not 0 <= n <= MAX_NUMBER:
        raise ValueError(f"number {n} outside supported range 0..{MAX_NUMBER}")
    if lang == "en":
        return _english(n)
    if lang == "de":
        return _german(n)
    raise ValueError(f"unsupported language {lang!r}")
