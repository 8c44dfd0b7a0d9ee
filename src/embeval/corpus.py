"""Cleaning cascade turning extracted document text into per-language corpora.

Stages, in order: NFC with ligatures spelled out, cover-page stripping,
dehyphenation, camel-case splitting, then per line lowercasing and
tokenization (which also collapses whitespace: a line is written as its
tokens joined by single spaces), language routing, number-to-word
conversion in the routed language and, when numbers were converted, routing
again, and finally sentence deduplication.  Line boundaries are the sentence
proxy throughout: dehyphenation joins words split across a line break but
keeps the remaining breaks as boundaries, otherwise per-line language
routing and line-level deduplication would have nothing to work on and the
cascade would not be idempotent.  A line is routed by the text that is
written, so a rerun on the output routes it the same way.

Deduplication is exact and keeps the first occurrence of each final
tokenized line, so two raw lines that clean to the same sentence count as
duplicates.  The per-line stages do their character work in C-level
builtins (``re`` substitutions, ``str`` methods, ``dict.fromkeys``) rather
than in per-character Python loops.

``clean_document`` is a pure function of one document's text that returns
plain ``(text, lang)`` pairs, so ``run_pipeline`` runs it in forked worker
processes, one per CPU the process may run on and at most one per
document.  Each worker reads its own files and sends one ``marshal``
record per document, holding those pairs as they are, back through a
pipe; the parent reads them in document order and does the corpus-wide
steps (routing, deduplication, stats) alone.  The corpora, stats and
report are therefore identical for any number of workers.  With one CPU,
or on a platform without ``os.fork``, the documents are cleaned serially
in the process itself.

The parent does not hold the routed lines.  It writes each to a spill file
of its language, in order, and with its index to one of ``_PARTITIONS``
partition files chosen by a hash of the line, in a temporary directory in
the output directory that every exit removes.  Identical lines share a
partition, so ``dedup_sentences`` on one partition at a time is exact; the
kept indices, one byte per line, then filter the spill file into the corpus
file.  The parent holds about one partition's share of a language's text,
not the corpus, and writes the same bytes.
"""

import contextlib
import itertools
import logging
import marshal
import math
import os
import re
import signal
import tempfile
import traceback
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Union

from .errors import InputParseError, WorkerError
from .langid import UNKNOWN, classify_line_language, default_classifier
from .numwords import number_to_words
from .thesaurus import DASH_CHARS, HYPHEN_CHARS

logger = logging.getLogger(__name__)

# Hyphens and dashes all end up as spaces, except when a hyphen sits
# directly before a line break, which joins the split word instead.
_HYPHEN_BREAK_RE = re.compile(f"[{HYPHEN_CHARS}][ \t]*\n[ \t]*")
_HYPHEN_RE = re.compile(f"[{HYPHEN_CHARS}{DASH_CHARS}]")

# The Latin ligatures U+FB00-U+FB06 as NFKC spells them; all of NFKC would make "²" a "2".
_LIGATURES = {chr(c): unicodedata.normalize("NFKC", chr(c)) for c in range(0xFB00, 0xFB07)}

# Detachable punctuation: periods, commas, parentheses, quotes, colons,
# semicolons, question and exclamation marks (ASCII and typographic quotes).
PUNCT_CHARS = ".,();:?!\"'„“”‚‘’«»"

# At most six digits, so every match is within number_to_words' range 0..999,999.
_INT_TOKEN_RE = re.compile(r"^(0|[1-9][0-9]{0,5})$")
# _INT_TOKEN_RE needs an ASCII digit, so text without one has no number to convert.
_DIGIT_RE = re.compile("[0-9]")
# The parts numbers_to_words may convert: whole whitespace-delimited chunks
# holding an ASCII digit (_INT_TOKEN_RE leaves every other chunk as it is).
# The lookbehind starts a match only at a chunk's start and the first class
# cannot cross a digit, so the scan stays linear in the text's length.
_CHUNK_RE = re.compile(r"(?<!\S)[^\s0-9]*[0-9]\S*")

# Routed lines are deduplicated in this many hash partitions per language,
# one at a time, so the parent holds about this share of a language's text.
_PARTITIONS = 16


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the cleaning cascade, loadable from a key=value file."""

    languages: tuple[str, ...] = ("de", "en")
    confidence_threshold: float = 0.7
    cover_delimiter: str | None = None
    convert_numbers: bool = True

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        values = {}
        for line_no, line in enumerate(_read_lines([path]), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise InputParseError(f"{path}: line {line_no}: expected key=value")
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if key in values:
                raise InputParseError(f"{path}: line {line_no}: repeated key {key!r}")
            if key == "languages":
                languages = tuple(v.strip() for v in value.split(",") if v.strip())
                # the classifier routes lines to its languages alone
                known = default_classifier().languages
                distinct = len(set(languages)) == len(languages)
                if not (languages and distinct and set(languages) <= set(known)):
                    raise InputParseError(f"{path}: line {line_no}: languages must be one or more "
                                          f"distinct of {', '.join(known)}, got {value!r}")
                values[key] = languages
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
        return cls(**values)


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


def strip_cover(text: str, cover_delimiter: str) -> str:
    """Drop everything up to and including the first line matching the pattern.

    ``re`` caches compiled patterns, so each process compiles a delimiter once.
    """
    pattern = re.compile(cover_delimiter)
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if pattern.search(line):
            return "\n".join(lines[i + 1 :])
    logger.warning("cover delimiter %r not found; text kept unchanged", cover_delimiter)
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


def _core_bounds(chunk: str) -> tuple[int, int]:
    """Start and end of ``chunk`` without its leading and trailing PUNCT_CHARS."""
    start = len(chunk) - len(chunk.lstrip(PUNCT_CHARS))
    return start, max(start, len(chunk.rstrip(PUNCT_CHARS)))


def tokenize(text: str) -> list[str]:
    """Whitespace tokens with leading/trailing punctuation detached as own tokens."""
    out: list[str] = []
    for chunk in text.split():
        if chunk[0] not in PUNCT_CHARS and chunk[-1] not in PUNCT_CHARS:
            out.append(chunk)
            continue
        start, end = _core_bounds(chunk)
        out.extend(chunk[:start])
        if start < end:
            out.append(chunk[start:end])
        out.extend(chunk[end:])
    return out


def numbers_to_words(text: str, lang: str) -> str:
    """Replace integer tokens 0..999,999 with their numeral words.

    A digit run counts as an integer token when tokenization would detach it
    whole, i.e. it may be wrapped in detachable punctuation ("(1999)") but
    not glued to letters or to internal punctuation ("2.1", "01.02.2020").
    English words are joined by spaces, not hyphens ("forty two"), as the
    earlier cleaning stage has mapped every hyphen to a space.
    """
    if lang not in ("de", "en"):
        raise ValueError(f"unsupported language {lang!r}")
    if not _DIGIT_RE.search(text):
        return text

    def convert_chunk(chunk: str) -> str:
        start, end = _core_bounds(chunk)
        core = chunk[start:end]
        if not _INT_TOKEN_RE.match(core):
            return chunk
        words = number_to_words(int(core), lang).replace("-", " ")
        return chunk[:start] + words + chunk[end:]

    return _CHUNK_RE.sub(lambda m: convert_chunk(m.group()), text)


def dedup_sentences(lines: Iterable[str]) -> tuple[list[str], DedupReport]:
    """Keep the first occurrence of each line, dropping later exact duplicates."""
    lines = list(lines)
    kept = list(dict.fromkeys(lines))
    return kept, DedupReport(kept=len(kept), dropped=len(lines) - len(kept))


def clean_document(text: str, config: PipelineConfig) -> tuple[list[tuple[str, str]], int]:
    """Run the per-document stages (everything before corpus-wide dedup).

    Returns the document's routed, tokenized lines as ``(text, lang)`` pairs
    and the count of lines routed to no kept language.  Each line is routed
    by its final, written text, so cleaning the output again routes every
    line the same way.  Numerals are spelled in the language of the line
    before conversion; when the words change the line, it is routed again.
    Number words are lowercase tokens joined by single spaces, so the
    converted line is already clean and is not tokenized again.
    """

    def route(line: str) -> str | None:
        lang, _ = classify_line_language(line, threshold=config.confidence_threshold)
        if lang == UNKNOWN or lang not in config.languages:
            return None
        return lang

    lines: list[tuple[str, str]] = []
    unknown_lines = 0
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    text = unicodedata.normalize("NFC", text)
    for ligature, letters in _LIGATURES.items():  # str.translate is 15x slower
        text = text.replace(ligature, letters)
    if config.cover_delimiter:
        text = strip_cover(text, config.cover_delimiter)
    text = dehyphenate(text)
    text = split_camel_case(text)
    # lowercasing can make a pair composable: "t\u0308" has a precomposed form, "T\u0308" not
    for line in unicodedata.normalize("NFC", text.lower()).split("\n"):
        line = " ".join(tokenize(line))
        if not line:
            continue
        routed = route(line)
        if routed is not None and config.convert_numbers:
            converted = numbers_to_words(line, routed)
            if converted != line:
                line = converted
                routed = route(line)
        if routed is None:
            unknown_lines += 1
            continue
        lines.append((line, routed))
    return lines, unknown_lines


Documents = Union[str, os.PathLike, Iterable[tuple[str, str]]]


def _usable_cpus() -> int:
    """CPUs this process may run on; tests patch it to force a worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity, as on macOS
        return os.cpu_count() or 1


def _doc_id(item) -> str:
    return str(item) if isinstance(item, Path) else item[0]


def _clean_item(item, config: PipelineConfig) -> tuple:
    """One input as the record run_pipeline aggregates: (skipped, unknown_lines, lines).

    ``item`` is a file path, read here, or a ``(doc_id, text)`` pair; lines
    are ``(text, lang)`` pairs.
    """
    if isinstance(item, Path):
        try:
            text = item.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            logger.warning("skipping unreadable input %s: %s", item, exc)
            return True, 0, []
    else:
        text = item[1]
    lines, unknown_lines = clean_document(text, config)
    return False, unknown_lines, lines


class _LogCapture(logging.Handler):
    """Keeps each record as the plain values ``marshal`` can send to the parent."""

    def __init__(self, records: list):
        super().__init__()
        self.records = records

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(
            (record.name, record.levelno, record.pathname, record.lineno, record.getMessage(), record.funcName)
        )


def _work(items: list, config: PipelineConfig, fd: int) -> None:
    """Body of a worker process: one marshal record per item, written to ``fd``.

    A record is ``(skipped, unknown_lines, lines, failure, logs)``:
    ``failure`` is the traceback text of an exception raised while cleaning
    the item (the worker then stops), and ``logs`` are the records logged
    meanwhile.  The handlers inherited from the parent are removed, so a
    record is emitted once, by the parent, in document order.
    """
    logs: list = []
    for lg in logging.Logger.manager.loggerDict.values():
        if isinstance(lg, logging.Logger):
            lg.handlers = []
            lg.propagate = True
    logging.root.handlers = [_LogCapture(logs)]
    with os.fdopen(fd, "wb") as out:
        for item in items:
            failure = None
            try:
                record = _clean_item(item, config)
            except Exception:
                failure = traceback.format_exc()
                record = (False, 0, [])
            marshal.dump((*record, failure, logs), out)
            logs.clear()
            if failure is not None:
                return


def _forked_records(items: list, workers: int, config: PipelineConfig):
    """The records of ``_clean_item`` for every item, in order, made by forked workers.

    Item i goes to worker i mod ``workers``, so reading the workers' pipes
    round-robin gives the items in order.  Each worker's log records are
    emitted here with its record.  On any exit, normal or not, every worker
    is killed and reaped.  Workers run only the cascade's Python code, so
    threads of the parent (a BLAS pool, say) hold no lock a worker needs.
    """
    procs: list[tuple[int, object]] = []
    try:
        for w in range(workers):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(rfd)
                    for _, reader in procs:
                        reader.close()
                    _work(items[w::workers], config, wfd)
                    status = 0
                finally:
                    os._exit(status)
            os.close(wfd)
            procs.append((pid, os.fdopen(rfd, "rb")))
        for i, item in enumerate(items):
            _, reader = procs[i % workers]
            try:
                skipped, unknown_lines, lines, failure, logs = marshal.load(reader)
            except EOFError:
                raise WorkerError(f"the worker process cleaning {_doc_id(item)} ended without a result") from None
            for name, levelno, pathname, lineno, msg, func in logs:
                logging.getLogger(name).handle(
                    logging.LogRecord(name, levelno, pathname, lineno, msg, None, None, func)
                )
            if failure is not None:
                raise WorkerError(f"cleaning {_doc_id(item)} failed in a worker process:\n{failure.rstrip()}")
            yield skipped, unknown_lines, lines
    finally:
        for pid, reader in procs:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_pipeline(
    documents: Documents,
    config: PipelineConfig,
    out_dir,
    corpus_name: str = "corpus",
) -> tuple[list[CorpusStats], PipelineReport, dict[str, Path]]:
    """Clean all documents and write one deduplicated corpus file per language.

    ``documents`` is a directory, whose ``*.txt`` files are read in name
    order, or an iterable of ``(doc_id, text)`` pairs, read into a list
    first.  Documents are cleaned in one forked worker per usable CPU, at
    most one per document; serially where there is one or where the
    platform has no ``os.fork``.  Results are aggregated in document order,
    so the output does not depend on the number of workers.

    Returns per-language stats (the stats CSV columns), a run report, and the
    paths of the written corpus files.
    """
    report = PipelineReport()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # built before any fork, so workers share its trigram tables; each
    # fills its own copy of the word memo
    default_classifier()
    if isinstance(documents, (str, os.PathLike)):
        items: list = sorted(Path(documents).glob("*.txt"))
    else:
        items = list(documents)
    workers = min(len(items), _usable_cpus())

    contributors: dict[str, set[str]] = {lang: set() for lang in config.languages}
    counts = dict.fromkeys(config.languages, 0)

    if workers > 1 and hasattr(os, "fork"):
        records = _forked_records(items, workers, config)
    else:
        records = (_clean_item(item, config) for item in items)
    stats: list[CorpusStats] = []
    outputs: dict[str, Path] = {}
    with tempfile.TemporaryDirectory(prefix=".spill-", dir=out) as tmp:
        spill = Path(tmp)
        with contextlib.closing(records), contextlib.ExitStack() as files:
            ordered = {lang: files.enter_context(_spill_open(spill / f"{lang}.txt", "w"))
                       for lang in config.languages}
            parts = {lang: [files.enter_context(_spill_open(spill / f"{lang}.{p}.txt", "w"))
                            for p in range(_PARTITIONS)] for lang in config.languages}
            for item, (skipped, unknown_lines, lines) in zip(items, records):
                doc_id = _doc_id(item)
                if skipped:
                    report.files_skipped.append(doc_id)
                    continue
                report.files_processed += 1
                report.unknown_lines += unknown_lines
                if not lines:
                    report.empty_documents += 1
                for text, lang in lines:
                    ordered[lang].write(text + "\n")
                    parts[lang][hash(text) % _PARTITIONS].write(f"{counts[lang]}\t{text}\n")
                    counts[lang] += 1
                    contributors[lang].add(doc_id)

        for lang in config.languages:
            path = out / f"{corpus_name}.{lang}.txt"
            report.dedup[lang] = _write_corpus(spill, lang, counts[lang], path)
            if not report.dedup[lang].kept:
                msg = f"no output lines for language {lang!r}"
                logger.warning(msg)
                report.warnings.append(msg)
            stats.append(CorpusStats(lang, *_count(_read_lines([path])), len(contributors[lang]),
                                     _megabytes([path])))
            outputs[lang] = path
    return stats, report, outputs


def _spill_open(path: Path, mode: str):
    """A spill file of lines that hold no tab or newline.  A lone surrogate
    passes, so encoding fails only where the corpus file is written."""
    return open(path, mode, encoding="utf-8", errors="surrogatepass", newline="\n")


def _write_corpus(spill: Path, lang: str, n: int, path: Path) -> DedupReport:
    """Write the kept lines of a language's ``n`` spilled lines to ``path``;
    return the sum of its partitions' dedup reports."""
    flags = bytearray(n)
    reports = [_mark_kept(spill / f"{lang}.{p}.txt", flags) for p in range(_PARTITIONS)]
    with _spill_open(spill / f"{lang}.txt", "r") as src, open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(itertools.compress(src, flags))
    return DedupReport(sum(r.kept for r in reports), sum(r.dropped for r in reports))


def _mark_kept(partition: Path, flags: bytearray) -> DedupReport:
    """Set the flag of each line ``dedup_sentences`` keeps of a partition.

    A partition's rows, each an index, a tab and a line, are in index
    order, so the lines it keeps, first occurrences in that order, are
    found in one walk.
    """
    with _spill_open(partition, "r") as fh:
        kept, report = dedup_sentences(row[row.index("\t") + 1 : -1] for row in fh)
        fh.seek(0)
        pending = iter(kept)
        wanted = next(pending, None)
        for row in fh:
            index, _, line = row[:-1].partition("\t")
            if line == wanted:
                flags[int(index)] = 1
                wanted = next(pending, None)
    return report


def _count(lines: Iterable[str]) -> tuple[int, int]:
    """Token count and vocabulary size of corpus lines; tokens are split at
    single spaces, a trailing newline is dropped and an empty line holds none."""
    tokens = 0
    vocab: set[str] = set()
    for line in lines:
        line = line.rstrip("\n")
        if line:
            parts = line.split(" ")
            tokens += len(parts)
            vocab.update(parts)
    return tokens, len(vocab)


def _megabytes(paths: list[Path]) -> float:
    return round(sum(path.stat().st_size for path in paths) / 1_000_000, 2)


def _read_lines(paths: list):
    """The lines of the user's text files; invalid UTF-8 is an InputParseError naming the file."""
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                yield from fh
            except UnicodeDecodeError as exc:
                # the decoder reads ahead, so the position in exc is not the file's
                raise InputParseError(f"{path}: not valid UTF-8: {exc.reason}") from None


def recount_stats(paths: Iterable) -> list[CorpusStats]:
    """Recount per-language stats from existing corpus files.

    The language is the second-to-last filename suffix
    (``name.de.txt`` -> ``de``); ``files`` counts the corpus files that were
    aggregated per language.
    """
    by_lang: dict[str, list[Path]] = {}
    for path in map(Path, paths):
        parts = path.name.split(".")
        by_lang.setdefault(parts[-2] if len(parts) >= 3 else "unknown", []).append(path)
    return [CorpusStats(lang, *_count(_read_lines(files)), len(files), _megabytes(files))
            for lang, files in sorted(by_lang.items())]
