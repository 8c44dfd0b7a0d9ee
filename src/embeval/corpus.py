"""Cleaning cascade turning extracted document text into per-language corpora.

Stages, in order: cover-page stripping, dehyphenation, camel-case splitting,
then per line whitespace/lowercase normalization and tokenization,
number-to-word conversion, language routing of the resulting line, and
finally sentence deduplication.  Line boundaries are the sentence proxy
throughout: dehyphenation joins words split across a line break but keeps
the remaining breaks as boundaries, otherwise per-line language routing and
line-level deduplication would have nothing to work on and the cascade would
not be idempotent.  A line is routed by the text that is written, so a
rerun on the output routes it the same way.

Deduplication is exact and keeps the first occurrence of each final
tokenized line, so two raw lines that clean to the same sentence count as
duplicates.  The per-line stages do their character work in C-level
builtins (``re`` substitutions, ``str`` methods, ``dict.fromkeys``) rather
than in per-character Python loops.
"""

import logging
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Union

from .errors import InputParseError
from .langid import UNKNOWN, TrigramClassifier, classify_line_language
from .numwords import MAX_NUMBER, number_to_words

logger = logging.getLogger(__name__)

# Word-joining hyphens (incl. soft hyphen) and dashes; all end up as spaces
# except when a hyphen sits directly before a line break, which joins the
# split word instead.
HYPHEN_CHARS = "-­‐‑"
DASH_CHARS = "‒–—"

_HYPHEN_BREAK_RE = re.compile(f"[{HYPHEN_CHARS}][ \t]*\n[ \t]*")
_HYPHEN_RE = re.compile(f"[{HYPHEN_CHARS}{DASH_CHARS}]")

# Detachable punctuation: periods, commas, parentheses, quotes, colons,
# semicolons, question and exclamation marks (ASCII and typographic quotes).
PUNCT_CHARS = ".,();:?!\"'„“”‚‘’«»"

_INT_TOKEN_RE = re.compile(r"^(0|[1-9][0-9]{0,5})$")
# _INT_TOKEN_RE needs an ASCII digit, so text without one has no number to convert.
_DIGIT_RE = re.compile("[0-9]")
# The parts numbers_to_words may convert: whole whitespace-delimited chunks
# holding an ASCII digit (_INT_TOKEN_RE leaves every other chunk as it is).
# The lookbehind starts a match only at a chunk's start and the first class
# cannot cross a digit, so the scan stays linear in the text's length.
_CHUNK_RE = re.compile(r"(?<!\S)[^\s0-9]*[0-9]\S*")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the cleaning cascade, loadable from a key=value file.

    Frozen so that ``cover_pattern``, compiled once from ``cover_delimiter``
    at construction, always matches it.
    """

    languages: tuple[str, ...] = ("de", "en")
    confidence_threshold: float = 0.7
    cover_delimiter: str | None = None
    convert_numbers: bool = True
    cover_pattern: re.Pattern | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pattern = re.compile(self.cover_delimiter) if self.cover_delimiter else None
        object.__setattr__(self, "cover_pattern", pattern)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        values = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise InputParseError(f"{path}: line {line_no}: expected key=value")
                key, _, value = stripped.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "languages":
                    values[key] = tuple(v.strip() for v in value.split(",") if v.strip())
                elif key == "confidence_threshold":
                    try:
                        threshold = float(value)
                    except ValueError:
                        raise InputParseError(
                            f"{path}: line {line_no}: confidence_threshold must be a number"
                        ) from None
                    # A nan threshold would silently keep every line: confidence < nan is false.
                    if not (math.isfinite(threshold) and 0.0 <= threshold <= 1.0):
                        raise InputParseError(
                            f"{path}: line {line_no}: confidence_threshold must be in [0, 1], got {value!r}"
                        )
                    values[key] = threshold
                elif key == "cover_delimiter":
                    try:
                        re.compile(value)
                    except re.error as exc:
                        raise InputParseError(
                            f"{path}: line {line_no}: cover_delimiter is not a valid regular expression: {exc}"
                        ) from None
                    values[key] = value or None
                elif key == "convert_numbers":
                    if value.lower() not in ("true", "false"):
                        raise InputParseError(f"{path}: line {line_no}: convert_numbers must be true or false")
                    values[key] = value.lower() == "true"
                else:
                    raise InputParseError(f"{path}: line {line_no}: unknown key {key!r}")
        # re caches compiled patterns, so __post_init__ reuses the one compiled above.
        return cls(**values)


@dataclass
class CleanedLine:
    text: str
    lang: str
    confidence: float


@dataclass
class CorpusDocument:
    """One document after cleaning: routed, tokenized lines plus raw text."""

    doc_id: str
    raw_text: str
    lines: list[CleanedLine] = field(default_factory=list)
    unknown_lines: int = 0


@dataclass
class CorpusStats:
    """Per-language corpus statistics: the report columns of the stats CSV."""

    lang: str
    tokens: int
    vocabulary: int
    files: int
    megabytes: float


@dataclass
class DedupReport:
    kept: int = 0
    dropped: int = 0


@dataclass
class PipelineReport:
    files_processed: int = 0
    files_skipped: list[str] = field(default_factory=list)
    empty_documents: int = 0
    unknown_lines: int = 0
    dedup: dict[str, DedupReport] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def strip_cover(text: str, cover_delimiter: str | re.Pattern) -> str:
    """Drop everything up to and including the first line matching the pattern."""
    pattern = re.compile(cover_delimiter)
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if pattern.search(line):
            return "\n".join(lines[i + 1 :])
    logger.warning("cover delimiter %r not found; text kept unchanged", pattern.pattern)
    return text


def dehyphenate(text: str) -> str:
    """Join words split by a hyphen at a line break; map other hyphens to spaces.

    Line breaks that are not part of a hyphenated split are kept: they
    delimit the sentence-proxy lines used by routing and deduplication.
    """
    text = _HYPHEN_BREAK_RE.sub("", text)
    return _HYPHEN_RE.sub(" ", text)


def split_camel_case(text: str) -> str:
    """Insert a space at lowercase-to-uppercase boundaries; acronyms stay intact.

    A boundary is a character for which str.islower holds followed by one for
    which str.isupper holds, so umlauts and other non-ASCII letters are
    classified correctly.  re has no Unicode category classes, so the two
    predicates are evaluated once per distinct character of the text, and one
    substitution inserts every space.
    """
    chars = set(text)
    lower = "".join(c for c in chars if c.islower())
    upper = "".join(c for c in chars if c.isupper())
    if not lower or not upper:
        return text
    return re.sub(f"(?<=[{re.escape(lower)}])(?=[{re.escape(upper)}])", " ", text)


def normalize_ws_lower(text: str) -> str:
    """Collapse whitespace runs to single spaces and lowercase everything.

    Newlines are line boundaries and survive; each line is trimmed.
    """
    lines = text.split("\n")
    return "\n".join(" ".join(line.split()).lower() for line in lines)


def tokenize(text: str) -> list[str]:
    """Whitespace tokens with leading/trailing punctuation detached as own tokens."""
    out: list[str] = []
    for chunk in text.split():
        if chunk[0] not in PUNCT_CHARS and chunk[-1] not in PUNCT_CHARS:
            out.append(chunk)
            continue
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


def numbers_to_words(text: str, lang: str, hyphenate: bool = True) -> str:
    """Replace integer tokens 0..999,999 with their numeral words.

    A digit run counts as an integer token when tokenization would detach it
    whole, i.e. it may be wrapped in detachable punctuation ("(1999)") but
    not glued to letters or to internal punctuation ("2.1", "01.02.2020").
    """
    if lang not in ("de", "en"):
        raise ValueError(f"unsupported language {lang!r}")
    if not _DIGIT_RE.search(text):
        return text

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
        words = number_to_words(value, lang, hyphenate=hyphenate)
        return chunk[:start] + words + chunk[end:]

    return _CHUNK_RE.sub(lambda m: convert_chunk(m.group()), text)


def dedup_sentences(lines: Iterable[str]) -> tuple[list[str], DedupReport]:
    """Keep the first occurrence of each line, dropping later exact duplicates."""
    lines = list(lines)
    kept = list(dict.fromkeys(lines))
    return kept, DedupReport(kept=len(kept), dropped=len(lines) - len(kept))


def clean_document(
    doc_id: str,
    text: str,
    config: PipelineConfig,
    classifier: TrigramClassifier | None = None,
) -> CorpusDocument:
    """Run the per-document stages (everything before corpus-wide dedup).

    Each line is routed by its final, written text, so cleaning the output
    again routes every line the same way.  Numerals are spelled in the
    language of the line before conversion; when the words change the line,
    it is routed again.
    """

    def route(line: str) -> tuple[str, float] | None:
        lang, confidence = classify_line_language(
            line, threshold=config.confidence_threshold, classifier=classifier
        )
        if lang == UNKNOWN or lang not in config.languages:
            return None
        return lang, confidence

    doc = CorpusDocument(doc_id=doc_id, raw_text=text)
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if config.cover_pattern is not None:
        text = strip_cover(text, config.cover_pattern)
    text = dehyphenate(text)
    text = split_camel_case(text)
    for line in text.split("\n"):
        line = " ".join(tokenize(normalize_ws_lower(line)))
        if not line:
            continue
        routed = route(line)
        if routed is not None and config.convert_numbers:
            converted = numbers_to_words(line, routed[0], hyphenate=False)
            if converted != line:
                line = " ".join(tokenize(normalize_ws_lower(converted)))
                routed = route(line)
        if routed is None:
            doc.unknown_lines += 1
            continue
        doc.lines.append(CleanedLine(line, *routed))
    return doc


Documents = Union[str, os.PathLike, Iterable[tuple[str, str]]]


def _iter_documents(documents: Documents, report: PipelineReport):
    if isinstance(documents, (str, os.PathLike)):
        paths = sorted(Path(documents).glob("*.txt"))
        for path in paths:
            try:
                yield str(path), path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                logger.warning("skipping unreadable input %s: %s", path, exc)
                report.files_skipped.append(str(path))
    else:
        yield from documents


def run_pipeline(
    documents: Documents,
    config: PipelineConfig,
    out_dir,
    corpus_name: str = "corpus",
    classifier: TrigramClassifier | None = None,
) -> tuple[list[CorpusStats], PipelineReport, dict[str, Path]]:
    """Clean all documents and write one deduplicated corpus file per language.

    Returns per-language stats (the stats CSV columns), a run report, and the
    paths of the written corpus files.
    """
    report = PipelineReport()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    routed: dict[str, list[str]] = {lang: [] for lang in config.languages}
    contributors: dict[str, set[str]] = {lang: set() for lang in config.languages}

    for doc_id, text in _iter_documents(documents, report):
        report.files_processed += 1
        doc = clean_document(doc_id, text, config, classifier)
        report.unknown_lines += doc.unknown_lines
        if not doc.lines:
            report.empty_documents += 1
        for line in doc.lines:
            routed[line.lang].append(line.text)
            contributors[line.lang].add(doc_id)

    stats: list[CorpusStats] = []
    outputs: dict[str, Path] = {}
    for lang in config.languages:
        kept, dedup_report = dedup_sentences(routed[lang])
        report.dedup[lang] = dedup_report
        path = out / f"{corpus_name}.{lang}.txt"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in kept:
                fh.write(line + "\n")
        if not kept:
            msg = f"no output lines for language {lang!r}"
            logger.warning(msg)
            report.warnings.append(msg)
        tokens = 0
        vocab: set[str] = set()
        for line in kept:
            parts = line.split(" ")
            tokens += len(parts)
            vocab.update(parts)
        stats.append(
            CorpusStats(
                lang=lang,
                tokens=tokens,
                vocabulary=len(vocab),
                files=len(contributors[lang]),
                megabytes=round(path.stat().st_size / 1_000_000, 2),
            )
        )
        outputs[lang] = path
    return stats, report, outputs


def recount_stats(paths: Iterable, lang_of=None) -> list[CorpusStats]:
    """Recount per-language stats from existing corpus files.

    The language defaults to the second-to-last filename suffix
    (``name.de.txt`` -> ``de``); ``files`` counts the corpus files that were
    aggregated per language.
    """
    by_lang: dict[str, dict] = {}
    for path in paths:
        path = Path(path)
        if lang_of is not None:
            lang = lang_of(path)
        else:
            parts = path.name.split(".")
            lang = parts[-2] if len(parts) >= 3 else "unknown"
        acc = by_lang.setdefault(
            lang, {"tokens": 0, "vocab": set(), "files": 0, "bytes": 0}
        )
        acc["files"] += 1
        acc["bytes"] += path.stat().st_size
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(" ")
                acc["tokens"] += len(parts)
                acc["vocab"].update(parts)
    return [
        CorpusStats(
            lang=lang,
            tokens=acc["tokens"],
            vocabulary=len(acc["vocab"]),
            files=acc["files"],
            megabytes=round(acc["bytes"] / 1_000_000, 2),
        )
        for lang, acc in sorted(by_lang.items())
    ]
