"""Independent brute-force reimplementations used as test oracles.

Everything here is deliberately naive: full DP matrices, full sorts, full
scans.  The point is that none of it shares pruning, banding or selection
logic with the code under test.
"""

import hashlib
import logging
import math
import operator
import os
import re
import unicodedata
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from embeval.corpus import DedupReport, dehyphenate, strip_cover
from embeval.errors import ThesaurusFormatError, VecFormatError
from embeval.langid import UNKNOWN, classify_line_language
from embeval.metrics import CoverageResult
from embeval.numwords import MAX_NUMBER, number_to_words
from embeval.stringsim import RatioMatch, VocabIndex, best_match, ratio
from embeval.thesaurus import RELATION_TYPES, keyword_tokens
from embeval.vectors import EmbeddingModel, Source, _normalize_matrix

logger = logging.getLogger(__name__)

HYPHENS = "-­‐‑‒–—"
_HYPHEN_RE = re.compile(f"[{HYPHENS}]")


def dp_edit_distance_sub2(a: str, b: str) -> int:
    """Full-matrix DP; insert/delete cost 1, substitution cost 2."""
    la, lb = len(a), len(b)
    d = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        d[i][0] = i
    for j in range(lb + 1):
        d[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            sub = d[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 2)
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, sub)
    return d[la][lb]


def ratio_oracle(a: str, b: str) -> float:
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return (total - dp_edit_distance_sub2(a, b)) / total


# The unpruned vocabulary scan best_match replaced (criterion 11's oracle).
def scan_match(token: str, vocab: VocabIndex, s: float) -> Optional[RatioMatch]:
    """Unpruned reference scan over the whole vocabulary; same contract as best_match."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"threshold s must be in (0, 1], got {s}")
    best: RatioMatch | None = None
    for idx, cand in enumerate(vocab.tokens):
        r = ratio(token, cand)
        if r < s:
            continue
        if best is None or r > best.ratio:
            best = RatioMatch(cand, r)
    return best


def _integer_row(row: list[float]) -> tuple[list[int], int]:
    """Integers ``n_i`` and a power of two ``d`` with ``row[i] == n_i / d`` for every component."""
    nums, dens = zip(*map(float.as_integer_ratio, row))
    den = max(dens)
    return [n * (den // d) for n, d in zip(nums, dens)], den


def exact_dot(x: list[float], y: list[float]) -> Fraction:
    """The dot product of two float rows as an exact rational."""
    return sum(map(operator.mul, map(Fraction, x), map(Fraction, y)), Fraction(0))


def knn_oracle(model, query: str, k: int) -> list[tuple[str, float]]:
    """Enumerate every candidate and fully sort by (-score, vocab index).

    A score is the exact dot product of the two unit rows, a rational whose
    denominator is a power of two, rounded once to the nearest float.  Each
    row is read as integers over one power of two, which keeps the exact
    arithmetic cheap.
    """
    unit = model.unit_matrix().tolist()
    qi = model.index[query]
    q, q_den = _integer_row(unit[qi])
    scores = {}
    for i, row in enumerate(unit):
        if i != qi and i not in model.zero_rows:
            ints, den = _integer_row(row)
            scores[i] = float(Fraction(sum(map(operator.mul, q, ints)), q_den * den))
    order = sorted(scores, key=lambda i: (-scores[i], i))
    return [(model.vocab[i], scores[i]) for i in order[:k]]


def raw_cosine(u, v) -> float:
    """Cosine straight from the definition on the raw vectors."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def keyword_tokens_oracle(label: str, lowercase: bool = True) -> list[str]:
    text = label.lower() if lowercase else label
    return _HYPHEN_RE.sub(" ", text).split()


def naive_coverage_count(vocab: list[str], labels, s: float, lowercase=True) -> int:
    """Count labels whose every token has some vocab word with ratio >= s."""
    covered = 0
    for label in labels:
        tokens = keyword_tokens_oracle(label, lowercase)
        if not tokens:
            continue
        if all(any(ratio_oracle(t, w) >= s for w in vocab) for t in tokens):
            covered += 1
    return covered


def naive_neighbor_tokens(model, query: str, k: int, lowercase=True) -> frozenset[str]:
    tokens = [t for t, _ in knn_oracle(model, query, k)]
    return frozenset(t.lower() for t in tokens) if lowercase else frozenset(tokens)


def _queryable(model, token: str) -> bool:
    row = model.index.get(token)
    return row is not None and row not in model.zero_rows


def naive_diversity(model_a, model_b, labels, k: int, lowercase=True):
    """(n_evaluated, n_disjoint) by full enumeration."""
    n_evaluated = 0
    n_disjoint = 0
    for label in labels:
        tokens = keyword_tokens_oracle(label, lowercase)
        if len(tokens) != 1:
            continue
        token = tokens[0]
        if not _queryable(model_a, token) or not _queryable(model_b, token):
            continue
        set_a = naive_neighbor_tokens(model_a, token, k, lowercase)
        set_b = naive_neighbor_tokens(model_b, token, k, lowercase)
        if not set_a and not set_b:
            continue
        n_evaluated += 1
        if not (set_a & set_b):
            n_disjoint += 1
    return n_evaluated, n_disjoint


def naive_relational(model, pairs, k: int, lowercase=True):
    """Per relation type of label pairs grouped by relation: (n_pairs,
    n_found, n_oov) by full enumeration."""
    out: dict[str, tuple[int, int, int]] = {}
    for rel, rel_pairs in pairs.items():
        n_found = n_oov = 0
        for descriptor_label, concept_label in rel_pairs:
            descriptor = keyword_tokens_oracle(descriptor_label, lowercase)
            concept = keyword_tokens_oracle(concept_label, lowercase)
            if len(descriptor) != 1 or not _queryable(model, descriptor[0]):
                n_oov += 1
                continue
            if len(concept) == 1 and concept[0] in naive_neighbor_tokens(model, descriptor[0], k, lowercase):
                n_found += 1
        out[rel] = (len(rel_pairs), n_found, n_oov)
    return out


# thesaurus.descriptor_pairs as it was while it also dropped multi-word pairs:
# one pass selects each relation's labels by language and, with
# single_word_only, splits every label at the default case setting.  It
# returns the sorted (descriptor label, concept label) pairs, the edges
# dropped for language and the pairs dropped as multi-word.
def descriptor_pairs_oracle(th, relation: str, lang: str, single_word_only: bool = False):
    if relation not in RELATION_TYPES:
        raise ValueError(f"unknown relation type {relation!r}")
    lang = lang.lower()
    pairs, skipped_no_lang, skipped_multiword = [], 0, 0
    for source, target in th.edges[relation]:
        src = th.concepts.get(source)
        if src is None or not src.pref_labels:
            skipped_no_lang += 1
            continue
        src_labels = [t for t, l in src.pref_labels if l == lang]
        if not src_labels:
            skipped_no_lang += 1
            continue
        if relation == "altLabel":
            # target is the literal itself; language filtering goes through
            # the concept's stored alt label tags
            tgt_labels = [t for t, l in src.alt_labels if l == lang and t == target]
        else:
            tgt = th.concepts.get(target)
            tgt_labels = [t for t, l in tgt.pref_labels if l == lang] if tgt else []
        if not tgt_labels:
            skipped_no_lang += 1
            continue
        for d_label in src_labels:
            for c_label in tgt_labels:
                if single_word_only and not (
                    len(keyword_tokens(d_label)) == len(keyword_tokens(c_label)) == 1
                ):
                    skipped_multiword += 1
                    continue
                pairs.append((d_label, c_label))
    pairs.sort()
    return pairs, skipped_no_lang, skipped_multiword


def _read_bytes(source: Source) -> bytes:
    if isinstance(source, bytes):
        return source
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return fh.read()
    return source.read()


# The word-vector loader as it was before the file was streamed and
# components were parsed a chunk at a time: the whole file decoded at once,
# one float() per component, checks in file order.
def load_vec_oracle(source: Source, name: str) -> tuple[EmbeddingModel, np.ndarray]:
    """Parse a word-vector text file into an EmbeddingModel and the raw rows
    it was built from."""
    raw = _read_bytes(source)
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise VecFormatError(f"not valid UTF-8: {exc}") from None
    if text.startswith("﻿"):
        raise VecFormatError("file starts with a BOM", line_no=1)

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise VecFormatError("empty file", line_no=1)

    header = lines[0].split(" ")
    if len(header) != 2 or not header[0].isdigit() or not header[1].isdigit():
        raise VecFormatError(f"malformed header {lines[0]!r}", line_no=1)
    count, dim = int(header[0]), int(header[1])
    if dim <= 0:
        raise VecFormatError(f"dimension must be positive, got {dim}", line_no=1)

    if len(lines) - 1 != count:
        raise VecFormatError(
            f"header declares {count} rows but file has {len(lines) - 1}"
        )

    vocab: list[str] = []
    seen: dict[str, int] = {}
    rows = np.empty((count, dim), dtype=np.float64)
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(" ")
        if len(parts) != dim + 1:
            raise VecFormatError(
                f"expected token plus {dim} components, found {len(parts) - 1}",
                line_no=line_no,
            )
        token = parts[0]
        if not token:
            raise VecFormatError("empty token", line_no=line_no)
        if token in seen:
            raise VecFormatError(f"duplicate token {token!r}", line_no=line_no)
        try:
            values = [float(p) for p in parts[1:]]
        except ValueError:
            raise VecFormatError("unparseable vector component", line_no=line_no) from None
        if not all(np.isfinite(values)):
            raise VecFormatError("non-finite vector component", line_no=line_no)
        seen[token] = len(vocab)
        rows[len(vocab)] = values
        vocab.append(token)

    # the whole matrix is normalized at once; the zero rows are read off the
    # raw rows, one component at a time
    zero_rows = frozenset(i for i, row in enumerate(rows.tolist()) if all(v == 0.0 for v in row))
    model = EmbeddingModel(name, dim, vocab, _normalize_matrix(rows), zero_rows, digest)
    if zero_rows:
        logger.warning("%s: %d zero vector(s) in input", name, len(zero_rows))
    return model, rows


# Coverage as it was before token matches were shared across thresholds:
# one best_match per token, label and threshold.
def keyword_covered_oracle(
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
    if not keyword:
        logger.warning("keyword reduced to no tokens; counted as not covered")
        return None
    if index is None:
        index = VocabIndex(model.vocab)
    matches: list[tuple[str, str, float]] = []
    for token in keyword:
        if lowercase:
            token = token.lower()
        m = best_match(token, index, s)
        if m is None:
            return None
        matches.append((token, m.matched_vocab_token, m.ratio))
    return matches


def coverage_oracle(
    model: EmbeddingModel,
    keywords: Sequence[str],
    s: float,
    lowercase: bool = True,
    index: VocabIndex | None = None,
) -> tuple[CoverageResult, dict[str, list[tuple[str, str, float]]]]:
    """Coverage of the keyword list in the model vocabulary at threshold s,
    and the match records of each covered keyword."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"threshold s must be in (0, 1], got {s}")
    if index is None:
        index = VocabIndex(model.vocab)
    result = CoverageResult(n_keywords=len(keywords), n_covered=0)
    hits: dict[str, list[tuple[str, str, float]]] = {}
    for label in keywords:
        tokens = keyword_tokens(label, lowercase=lowercase)
        matches = keyword_covered_oracle(tokens, model, s, index=index, lowercase=lowercase)
        if matches is not None:
            result.n_covered += 1
            hits[label] = matches
    return result, hits


# The text of an RDF 1.1 N-Triples STRING_LITERAL_QUOTE body, read as a
# character loop over the spec's productions: a character other than '"',
# '\\', LF and CR stands for itself, and a backslash starts an ECHAR or a
# UCHAR.  A UCHAR beyond U+10FFFF is an error too.
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_UCHAR_WIDTH = {"u": 4, "U": 8}


def unescape_literal_oracle(raw: str, line_no: int) -> str:
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch in '"\n\r':
            raise ThesaurusFormatError(f"unescaped {ch!r} in literal", line_no=line_no)
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        esc = raw[i + 1 : i + 2]
        if esc in _ECHAR:
            out.append(_ECHAR[esc])
            i += 2
            continue
        if esc not in _UCHAR_WIDTH:
            raise ThesaurusFormatError(f"unknown escape \\{esc}", line_no=line_no)
        width = _UCHAR_WIDTH[esc]
        code = raw[i + 2 : i + 2 + width]
        if len(code) != width or any(c not in "0123456789abcdefABCDEF" for c in code):
            raise ThesaurusFormatError(f"bad \\{esc} escape {code!r}", line_no=line_no)
        if int(code, 16) > 0x10FFFF:
            raise ThesaurusFormatError(f"\\{esc}{code} is beyond U+10FFFF", line_no=line_no)
        out.append(chr(int(code, 16)))
        i += 2 + width
    return "".join(out)


# The per-line stages of the cleaning cascade as they were before they were
# moved onto C-level builtins: a character loop for camel case, a split and
# join for numbers, a punctuation loop for every token, FNV-1a buckets for
# deduplication, and a per-gram loop of float additions for the trigram scores.
PUNCT_CHARS = ".,();:?!\"'„“”‚‘’«»"

_INT_TOKEN_RE = re.compile(r"^(0|[1-9][0-9]{0,5})$")

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def split_camel_case_oracle(text: str) -> str:
    """Insert a space at lowercase-to-uppercase boundaries; acronyms stay intact.

    Uses str.islower/isupper so umlauts and other non-ASCII letters are
    classified correctly (re has no Unicode category classes).
    """
    if not text:
        return text
    out = [text[0]]
    for prev, ch in zip(text, text[1:]):
        if prev.islower() and ch.isupper():
            out.append(" ")
        out.append(ch)
    return "".join(out)


def tokenize_oracle(text: str) -> list[str]:
    """Whitespace tokens with leading/trailing punctuation detached as own tokens."""
    out: list[str] = []
    for chunk in text.split():
        head: list[str] = []
        tail: list[str] = []
        start, end = 0, len(chunk)
        while start < end and chunk[start] in PUNCT_CHARS:
            head.append(chunk[start])
            start += 1
        while end > start and chunk[end - 1] in PUNCT_CHARS:
            tail.append(chunk[end - 1])
            end -= 1
        out.extend(head)
        if start < end:
            out.append(chunk[start:end])
        out.extend(reversed(tail))
    return out


def numbers_to_words_oracle(text: str, lang: str) -> str:
    """Replace integer tokens 0..999,999 with their numeral words.

    A digit run counts as an integer token when tokenization would detach it
    whole, i.e. it may be wrapped in detachable punctuation ("(1999)") but
    not glued to letters or to internal punctuation ("2.1", "01.02.2020").
    """
    if lang not in ("de", "en"):
        raise ValueError(f"unsupported language {lang!r}")

    def convert_chunk(chunk: str) -> str:
        start, end = 0, len(chunk)
        while start < end and chunk[start] in PUNCT_CHARS:
            start += 1
        while end > start and chunk[end - 1] in PUNCT_CHARS:
            end -= 1
        core = chunk[start:end]
        if not _INT_TOKEN_RE.match(core):
            return chunk
        value = int(core)
        if value > MAX_NUMBER:
            return chunk
        words = number_to_words(value, lang).replace("-", " ")
        return chunk[:start] + words + chunk[end:]

    lines = text.split("\n")
    converted = []
    for line in lines:
        parts = re.split(r"(\s+)", line)
        converted.append(
            "".join(convert_chunk(p) if p and not p.isspace() else p for p in parts)
        )
    return "\n".join(converted)


# The Latin ligatures U+FB00-U+FB06 and their letters, as the Unicode
# character names spell them.
_LIGATURE_LETTERS = {"\ufb00": "ff", "\ufb01": "fi", "\ufb02": "fl", "\ufb03": "ffi",
                     "\ufb04": "ffl", "\ufb05": "st", "\ufb06": "st"}


def clean_document_oracle(text: str, config) -> tuple[list[tuple[str, str]], int]:
    """The per-document stages with a separate per-line normalization stage:
    each line has its whitespace runs collapsed, is lowercased and composed
    to NFC, then tokenized; a line whose numerals were converted is
    normalized and tokenized again before it is routed again.  The document
    is composed to NFC first, and its ligatures replaced one character at a
    time."""

    def normalize(line: str) -> str:
        lowered = " ".join(line.split()).lower()
        return " ".join(tokenize_oracle(unicodedata.normalize("NFC", lowered)))

    def route(line: str) -> Optional[str]:
        lang, _ = classify_line_language(line, threshold=config.confidence_threshold)
        return None if lang == UNKNOWN or lang not in config.languages else lang

    lines: list[tuple[str, str]] = []
    unknown_lines = 0
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    text = "".join(_LIGATURE_LETTERS.get(c, c) for c in unicodedata.normalize("NFC", text))
    if config.cover_delimiter:
        text = strip_cover(text, config.cover_delimiter)
    text = split_camel_case_oracle(dehyphenate(text))
    for line in text.split("\n"):
        line = normalize(line)
        if not line:
            continue
        routed = route(line)
        if routed is not None and config.convert_numbers:
            converted = numbers_to_words_oracle(line, routed)
            if converted != line:
                line = normalize(converted)
                routed = route(line)
        if routed is None:
            unknown_lines += 1
            continue
        lines.append((line, routed))
    return lines, unknown_lines


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & _MASK64
    return h


def dedup_sentences_oracle(lines: Iterable[str]) -> tuple[list[str], DedupReport]:
    """Keep the first occurrence of each line, dropping later exact duplicates.

    Lines are hashed with 64-bit FNV-1a over their UTF-8 bytes; a hash hit is
    confirmed against the stored strings so a collision never drops a
    non-duplicate.
    """
    seen: dict[int, list[str]] = {}
    kept: list[str] = []
    report = DedupReport()
    for line in lines:
        h = fnv1a_64(line.encode("utf-8"))
        bucket = seen.get(h)
        if bucket is not None and line in bucket:
            report.dropped += 1
            continue
        if bucket is None:
            seen[h] = [line]
        else:
            bucket.append(line)
        kept.append(line)
        report.kept += 1
    return kept, report


_WS_RE = re.compile(r"\s+")


def trigrams_oracle(text: str) -> list[str]:
    """Character trigrams of the space-padded, whitespace-collapsed text."""
    padded = " " + _WS_RE.sub(" ", text.strip()) + " "
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


def trigram_profiles_oracle(seeds: dict[str, str]) -> dict[str, tuple[dict[str, float], float]]:
    """Per language: the add-one smoothed log-probability of each trigram of
    its seed and lowercased seed, and that of an unseen trigram."""
    counts = {}
    for lang, seed in seeds.items():
        counts[lang] = {}
        for g in trigrams_oracle(seed) + trigrams_oracle(seed.lower()):
            counts[lang][g] = counts[lang].get(g, 0) + 1
    vocab = set()
    for c in counts.values():
        vocab |= set(c)
    profiles = {}
    for lang, c in counts.items():
        total = sum(c.values()) + len(vocab) + 1
        profiles[lang] = ({g: math.log((n + 1) / total) for g, n in c.items()}, math.log(1 / total))
    return profiles


def language_values(clf, lang: str, grams: list[str]) -> list[float]:
    """The value of each gram under ``lang``: the real part of its value in
    the classifier's table for the first language, the imaginary part for
    the second."""
    part = ("real", "imag")[clf.languages.index(lang)]
    return [getattr(clf._table.get(g, clf._unseen), part) for g in grams]


def classify_oracle(self, line: str) -> tuple[str, float]:
    """Best language and its posterior probability; UNKNOWN for letterless lines.

    ``self`` is a ``TrigramClassifier``; this is its ``classify`` method,
    with one float sum per language over every trigram of the line.
    """
    if not any(ch.isalpha() for ch in line):
        return UNKNOWN, 0.0
    grams = trigrams_oracle(line)
    scores = {}
    for lang in self.languages:
        score = 0.0
        for value in language_values(self, lang, grams):
            score += value
        scores[lang] = score
    top = max(self.languages, key=lambda lang: scores[lang])
    peak = scores[top]
    denom = 0.0
    for s in scores.values():
        denom += math.exp(s - peak)
    return top, 1.0 / denom
