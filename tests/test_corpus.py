import contextlib
import os
import random
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import embeval.corpus as corpus
import embeval.langid as langid
from embeval.cli import main
from embeval.errors import InputParseError, WorkerError
from embeval.corpus import (
    PUNCT_CHARS,
    PipelineConfig,
    clean_document,
    dedup_sentences,
    dehyphenate,
    normalize_ws_lower,
    numbers_to_words,
    recount_stats,
    run_pipeline,
    split_camel_case,
    strip_cover,
    tokenize,
)
from embeval.langid import TrigramClassifier, _trigrams, default_classifier
from oracles import (
    classify_oracle,
    dedup_sentences_oracle,
    fnv1a_64,
    numbers_to_words_oracle,
    split_camel_case_oracle,
    tokenize_oracle,
    trigrams_oracle,
)

GERMAN_DOC = """Deckblatt Information
www.example.org / Veröffentlichungsversion
---
Die soziale Ungleichheit in Deutschland nimmt seit Jahren zu.
Bildung und Einkommen hängen eng zusammen, das zeigen 5 neue Studien.
Der Sozial-
staat gleicht einen Teil der Unterschiede aus.
Die soziale Ungleichheit in Deutschland nimmt seit Jahren zu.
Zwischen Nord-Süd und Ost-West bestehen weiter große Unterschiede.
"""

ENGLISH_DOC = """Cover page of the repository
---
Social inequality has been rising for 42 years in many countries.
Education and income are closely linked, as recent work shows.
The welfare state offsets some of the differences.
Social inequality has been rising for 42 years in many countries.
"""

MIXED_DOC = """Cover
---
Die Studie vergleicht mehrere europäische Länder.
The study compares several European countries in detail.
Zwei von 3 Befragten stimmten der Aussage zu.
"""


def test_strip_cover_basic():
    assert strip_cover("COVER\n---\nbody", "^---$") == "body"


def test_strip_cover_missing_delimiter_warns(caplog):
    with caplog.at_level("WARNING"):
        assert strip_cover("no delimiter here", "^---$") == "no delimiter here"
    assert "not found" in caplog.text


def test_strip_cover_delimiter_on_first_line():
    assert strip_cover("---\nbody", "^---$") == "body"


def test_dehyphenate_joins_linebreak_split():
    assert dehyphenate("Sozial-\nwissenschaft") == "Sozialwissenschaft"
    assert dehyphenate("Wis-\n  sen") == "Wissen"


def test_dehyphenate_intraword_hyphen_to_space():
    assert dehyphenate("Nord-Süd") == "Nord Süd"


def test_dehyphenate_keeps_other_line_breaks():
    assert dehyphenate("erste Zeile\nzweite Zeile") == "erste Zeile\nzweite Zeile"


def test_dehyphenate_idempotent_on_random_texts():
    rng = random.Random(31)
    pieces = ["wort", "Sozial-", "staat", "-", "\n", " ", "Nord-Süd", "über", "a"]
    for _ in range(1000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 12)))
        once = dehyphenate(text)
        assert dehyphenate(once) == once


def test_split_camel_case_examples():
    assert split_camel_case("SozialStaat") == "Sozial Staat"
    assert split_camel_case("NATO") == "NATO"
    assert split_camel_case("onePageTwoWords") == "one Page Two Words"


def test_split_camel_case_umlauts():
    assert split_camel_case("GrünesÜbereinkommen") == "Grünes Übereinkommen"
    assert split_camel_case("ÜBER") == "ÜBER"


def test_split_camel_case_boundary_enumeration():
    # oracle: a boundary is exactly a lowercase char followed by an uppercase one
    rng = random.Random(32)
    for _ in range(300):
        text = "".join(rng.choice("aAbBßÜü ") for _ in range(rng.randrange(0, 10)))
        expected = []
        for i, ch in enumerate(text):
            expected.append(ch)
            if i + 1 < len(text) and ch.islower() and text[i + 1].isupper():
                expected.append(" ")
        assert split_camel_case(text) == "".join(expected)


def test_numbers_to_words_examples():
    assert numbers_to_words("5 Thesen", "de") == "fünf Thesen"
    assert numbers_to_words("version 2.1", "en") == "version 2.1"
    assert numbers_to_words("42 items", "en") == "forty two items"


def test_numbers_to_words_respects_token_shapes():
    assert numbers_to_words("(1999)", "de") == "(eintausendneunhundertneunundneunzig)"
    assert numbers_to_words("am 01.02.2020", "de") == "am 01.02.2020"
    assert numbers_to_words("Seite 007", "de") == "Seite 007"
    assert numbers_to_words("1000000 Einwohner", "de") == "1000000 Einwohner"
    assert numbers_to_words("1,5 Prozent", "de") == "1,5 Prozent"


def test_numbers_to_words_rejects_unknown_language():
    with pytest.raises(ValueError):
        numbers_to_words("5", "fr")


def test_normalize_ws_lower_examples():
    assert normalize_ws_lower("A  B") == "a b"
    assert normalize_ws_lower("ÜBER") == "über"
    assert normalize_ws_lower("a\tb  c") == "a b c"


def test_normalize_ws_lower_idempotent():
    rng = random.Random(33)
    pieces = ["A", "b", "  ", "\t", "Ü", "ß", "x ", "\n"]
    for _ in range(500):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 12)))
        once = normalize_ws_lower(text)
        assert normalize_ws_lower(once) == once


def test_dedup_drops_later_duplicates():
    kept, report = dedup_sentences(["a b", "c d", "a b"])
    assert kept == ["a b", "c d"]
    assert (report.kept, report.dropped) == (2, 1)


def test_dedup_all_unique():
    kept, report = dedup_sentences(["x", "y"])
    assert kept == ["x", "y"]
    assert report.dropped == 0


def test_dedup_idempotent():
    lines = ["a", "b", "a", "c", "b"]
    once, _ = dedup_sentences(lines)
    twice, report = dedup_sentences(once)
    assert twice == once
    assert report.dropped == 0


def test_fnv1a_64_reference_values():
    # published FNV-1a test vectors
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_tokenize_examples():
    assert tokenize("soziale ungleichheit.") == ["soziale", "ungleichheit", "."]
    assert tokenize("(macht)") == ["(", "macht", ")"]
    assert tokenize("sagte: „genau so“!") == ["sagte", ":", "„", "genau", "so", "“", "!"]
    assert tokenize("") == []


def test_tokenize_round_trip():
    rng = random.Random(34)
    pieces = ["wort", "(", ")", ".", ",", "z.b", "2.1", "a", "über"]
    for _ in range(500):
        tokens = tokenize(" ".join(rng.choice(pieces) for _ in range(rng.randrange(0, 10))))
        assert tokenize(" ".join(tokens)) == tokens
        assert all(tokens)


def test_clean_document_routes_lines():
    config = PipelineConfig(cover_delimiter="^---$")
    lines, _ = clean_document(MIXED_DOC, config)
    langs = [lang for _, lang in lines]
    assert langs == ["de", "en", "de"]
    assert lines[2][0] == "zwei von drei befragten stimmten der aussage zu ."


def test_clean_document_lines_are_clean():
    config = PipelineConfig(cover_delimiter="^---$")
    for raw in (GERMAN_DOC, ENGLISH_DOC, MIXED_DOC):
        lines, _ = clean_document(raw, config)
        for text, _ in lines:
            assert text == text.lower()
            assert "\t" not in text
            assert "  " not in text
            assert text.strip() == text


def _write_docs(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "doc_de.txt").write_text(GERMAN_DOC, encoding="utf-8")
    (docs / "doc_en.txt").write_text(ENGLISH_DOC, encoding="utf-8")
    (docs / "doc_mixed.txt").write_text(MIXED_DOC, encoding="utf-8")
    (docs / "doc_empty.txt").write_text("", encoding="utf-8")
    return docs


def test_run_pipeline_end_to_end(tmp_path):
    docs = _write_docs(tmp_path)
    config = PipelineConfig(cover_delimiter="^---$")
    out = tmp_path / "out"
    stats, report, outputs = run_pipeline(docs, config, out)

    assert report.files_processed == 4
    assert report.empty_documents == 1

    de_lines = outputs["de"].read_text(encoding="utf-8").splitlines()
    en_lines = outputs["en"].read_text(encoding="utf-8").splitlines()
    # hand labels: German doc has 4 unique sentences + 1 planted duplicate,
    # mixed doc adds 2 German sentences; English doc has 3 + 1 duplicate,
    # mixed doc adds 1 English sentence
    assert len(de_lines) == 6
    assert len(en_lines) == 4
    assert report.dedup["de"].dropped == 1
    assert report.dedup["en"].dropped == 1
    assert "der sozialstaat gleicht einen teil der unterschiede aus ." in de_lines
    assert "zwischen nord süd und ost west bestehen weiter große unterschiede ." in de_lines
    assert (
        "bildung und einkommen hängen eng zusammen , das zeigen fünf neue studien ."
        in de_lines
    )
    assert (
        "social inequality has been rising for forty two years in many countries ."
        in en_lines
    )

    by_lang = {s.lang: s for s in stats}
    assert by_lang["de"].files == 2
    assert by_lang["en"].files == 2
    for lines, lang in ((de_lines, "de"), (en_lines, "en")):
        tokens = sum(len(l.split(" ")) for l in lines)
        vocab = {t for l in lines for t in l.split(" ")}
        assert by_lang[lang].tokens == tokens
        assert by_lang[lang].vocabulary == len(vocab)


def test_run_pipeline_idempotent(tmp_path):
    docs = _write_docs(tmp_path)
    # Its capitalized form scores as English, its cleaned form as German: a
    # line routed by its raw form moves to the other corpus on a rerun.
    (docs / "doc_moves.txt").write_text(
        "Cover\n---\nEr bei bis interviews einkommen interviews interviews oder es.\n",
        encoding="utf-8",
    )
    config = PipelineConfig(cover_delimiter="^---$")
    out1 = tmp_path / "out1"
    run_pipeline(docs, config, out1)

    second_in = tmp_path / "docs2"
    second_in.mkdir()
    for lang in ("de", "en"):
        text = (out1 / f"corpus.{lang}.txt").read_text(encoding="utf-8")
        (second_in / f"corpus_{lang}.txt").write_text(text, encoding="utf-8")
    out2 = tmp_path / "out2"
    run_pipeline(second_in, config, out2)
    for lang in ("de", "en"):
        assert (out2 / f"corpus.{lang}.txt").read_bytes() == (
            out1 / f"corpus.{lang}.txt"
        ).read_bytes()


def test_run_pipeline_cleanliness_invariants(tmp_path):
    docs = _write_docs(tmp_path)
    out = tmp_path / "out"
    _, _, outputs = run_pipeline(docs, PipelineConfig(cover_delimiter="^---$"), out)
    for path in outputs.values():
        for line in path.read_text(encoding="utf-8").splitlines():
            assert line == line.lower()
            assert "\t" not in line
            assert "  " not in line


def test_run_pipeline_accepts_inline_documents(tmp_path):
    config = PipelineConfig()
    stats, report, outputs = run_pipeline(
        [("a", "Die Gesellschaft verändert sich schnell.")], config, tmp_path / "o"
    )
    assert report.files_processed == 1
    de = outputs["de"].read_text(encoding="utf-8")
    assert de == "die gesellschaft verändert sich schnell .\n"


def test_run_pipeline_skips_unreadable_files(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "good.txt").write_text("Die Gesellschaft wandelt sich.", encoding="utf-8")
    (docs / "broken.txt").write_bytes(b"\xff\xfe invalid utf-8 \x80")
    stats, report, outputs = run_pipeline(docs, PipelineConfig(), tmp_path / "o")
    assert report.files_processed == 1
    assert report.files_skipped == [str(docs / "broken.txt")]
    assert "gesellschaft" in outputs["de"].read_text(encoding="utf-8")


def test_clean_document_handles_crlf():
    config = PipelineConfig()
    lines, _ = clean_document("Sozial-\r\nwissenschaft ist wichtig.\r\n", config)
    assert lines[0][0] == "sozialwissenschaft ist wichtig ."


def test_run_pipeline_warns_on_empty_language(tmp_path):
    config = PipelineConfig()
    stats, report, outputs = run_pipeline(
        [("a", "Die Gesellschaft verändert sich schnell.")], config, tmp_path / "o"
    )
    assert any("en" in w for w in report.warnings)
    assert outputs["en"].read_text(encoding="utf-8") == ""


def test_recount_matches_pipeline_stats(tmp_path):
    docs = _write_docs(tmp_path)
    out = tmp_path / "out"
    stats, _, outputs = run_pipeline(docs, PipelineConfig(cover_delimiter="^---$"), out)
    recounted = {s.lang: s for s in recount_stats(outputs.values())}
    for s in stats:
        r = recounted[s.lang]
        assert (r.tokens, r.vocabulary) == (s.tokens, s.vocabulary)
        assert r.megabytes == s.megabytes


def test_config_from_file(tmp_path):
    path = tmp_path / "pipeline.conf"
    path.write_text(
        "# comment\n"
        "languages=de,en\n"
        "confidence_threshold=0.8\n"
        "cover_delimiter=^===$\n"
        "convert_numbers=false\n",
        encoding="utf-8",
    )
    config = PipelineConfig.from_file(path)
    assert config.languages == ("de", "en")
    assert config.confidence_threshold == 0.8
    assert config.cover_delimiter == "^===$"
    assert config.convert_numbers is False


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("nope=1\n", encoding="utf-8")
    with pytest.raises(InputParseError, match="unknown key"):
        PipelineConfig.from_file(path)


def test_config_rejects_invalid_cover_delimiter(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("languages=de\ncover_delimiter = ([\n", encoding="utf-8")
    with pytest.raises(
        InputParseError, match="line 2: cover_delimiter is not a valid regular expression"
    ):
        PipelineConfig.from_file(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.1", "1.5"])
def test_config_rejects_out_of_range_threshold(tmp_path, value):
    path = tmp_path / "bad.conf"
    path.write_text(f"# threshold\nconfidence_threshold = {value}\n", encoding="utf-8")
    with pytest.raises(InputParseError, match="line 2: confidence_threshold must be in"):
        PipelineConfig.from_file(path)


@pytest.mark.parametrize("value, expected", [("0", 0.0), ("1", 1.0)])
def test_config_accepts_threshold_bounds(tmp_path, value, expected):
    path = tmp_path / "pipeline.conf"
    path.write_text(f"confidence_threshold={value}\n", encoding="utf-8")
    assert PipelineConfig.from_file(path).confidence_threshold == expected


# Characters where str predicates, re classes and the cascade's character
# sets disagree or meet: ß/ẞ/ǅ (lower, upper, titlecase), separators that
# str.split and re's \s treat as whitespace (U+001C, U+0085, U+00A0, U+3000),
# non-ASCII digits (Arabic-Indic three, superscript two), every detachable
# punctuation character, hyphens and dashes.
# Each group is drawn equally often, so the rare characters meet the common ones.
_FUZZ_GROUPS = [
    list("aAbBzZüÜ "),
    list("ßẞǅ") + ["\t", "\n", "\x1c", "\x85", "\xa0", "\u3000", "٣", "²"],
    list("0123456789") + list(PUNCT_CHARS) + list(corpus.HYPHEN_CHARS + corpus.DASH_CHARS),
]
_FUZZ_CHARS = [c for group in _FUZZ_GROUPS for c in group]
_SURROGATES = ["\ud800", "\udfff"]
_WORDS = ["Die", "Gesellschaft", "sozialStaat", "the", "Welfare", "NATO", "über", "Sozial-"]
_NUMBERS = st.integers(0, 9_999_999).map(str)


def _texts(surrogates: bool):
    groups = _FUZZ_GROUPS[:1] + [_FUZZ_GROUPS[1] + (_SURROGATES if surrogates else [])] + _FUZZ_GROUPS[2:]
    piece = st.one_of(*map(st.sampled_from, groups), st.sampled_from(_WORDS), _NUMBERS)
    return st.lists(piece, max_size=30).map("".join)


@settings(max_examples=400, deadline=None)
@given(_texts(surrogates=True))
@example("aǅb ßẞ üÜ a\ud800B")
def test_split_camel_case_equals_oracle(text):
    assert split_camel_case(text) == split_camel_case_oracle(text)


@settings(max_examples=400, deadline=None)
@given(_texts(surrogates=True), st.sampled_from(["de", "en"]))
def test_numbers_to_words_equals_oracle(text, lang):
    assert numbers_to_words(text, lang) == numbers_to_words_oracle(text, lang)


@settings(max_examples=400, deadline=None)
@given(_texts(surrogates=True))
def test_tokenize_equals_oracle(text):
    assert tokenize(text) == tokenize_oracle(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["", "a", "a b", "A b"]) | _texts(surrogates=True), max_size=20))
def test_dedup_sentences_equals_oracle(lines):
    # The oracle hashes UTF-8 bytes and cannot encode a lone surrogate, so it
    # sees each line as its surrogatepass bytes read as Latin-1: an injective
    # map, under which first occurrences are the same positions.
    encoded = [line.encode("utf-8", "surrogatepass").decode("latin-1") for line in lines]
    expected, expected_report = dedup_sentences_oracle(encoded)
    kept, report = dedup_sentences(iter(lines))
    original = dict(zip(encoded, lines))
    assert kept == [original[line] for line in expected]
    assert (report.kept, report.dropped) == (expected_report.kept, expected_report.dropped)


@settings(max_examples=400, deadline=None)
@given(_texts(surrogates=True))
def test_classify_equals_oracle(line):
    clf = default_classifier()
    assert _trigrams(line) == trigrams_oracle(line)
    assert clf.classify(line) == classify_oracle(clf, line)


class _OracleClassifier(TrigramClassifier):
    """The default classifier's tables, scored by the oracle's classify."""

    def __init__(self):
        self.__dict__.update(default_classifier().__dict__)

    classify = classify_oracle


# Whole documents: lines of words, numbers and punctuation in both languages.
_LINE = st.lists(
    st.one_of(
        st.sampled_from(_WORDS + ["ist", "und", "of", "and", "(1999)", "42,", "2.1", "Sozial-\nstaat"]),
        st.sampled_from(_FUZZ_CHARS),
        _NUMBERS,
    ),
    max_size=12,
).map(" ".join)
_DOCUMENT = st.lists(_LINE, min_size=1, max_size=8).map("\n".join)


@settings(max_examples=40, deadline=None)
@given(st.lists(_DOCUMENT, min_size=1, max_size=4))
def test_run_pipeline_equals_oracle_cascade(texts):
    # Documents read from UTF-8 files cannot hold lone surrogates, so none are drawn.
    docs = [(f"d{i}", text + "\n" + texts[0]) for i, text in enumerate(texts)]
    config = PipelineConfig(confidence_threshold=0.6)
    with tempfile.TemporaryDirectory() as tmp:
        out, oracle_out = Path(tmp, "new"), Path(tmp, "oracle")
        stats, report, _ = run_pipeline(docs, config, out)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus, "split_camel_case", split_camel_case_oracle)
            mp.setattr(corpus, "numbers_to_words", numbers_to_words_oracle)
            mp.setattr(corpus, "tokenize", tokenize_oracle)
            mp.setattr(corpus, "dedup_sentences", dedup_sentences_oracle)
            mp.setattr(langid, "_default", _OracleClassifier())
            oracle_stats, oracle_report, _ = run_pipeline(docs, config, oracle_out)
        for lang in config.languages:
            name = f"corpus.{lang}.txt"
            assert (out / name).read_bytes() == (oracle_out / name).read_bytes()
    assert stats == oracle_stats
    assert report == oracle_report


@settings(max_examples=60, deadline=None)
@given(st.lists(_DOCUMENT, min_size=1, max_size=4), st.booleans())
def test_run_pipeline_on_its_own_output_is_byte_identical(texts, convert_numbers):
    config = PipelineConfig(confidence_threshold=0.6, convert_numbers=convert_numbers)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        _, _, outputs = run_pipeline([(f"d{i}", text) for i, text in enumerate(texts)], config, first)
        again = [(lang, path.read_text(encoding="utf-8")) for lang, path in outputs.items()]
        run_pipeline(again, config, second)
        for lang in config.languages:
            name = f"corpus.{lang}.txt"
            assert (second / name).read_bytes() == (first / name).read_bytes()


def _with_workers(workers: int, documents, config, out):
    """run_pipeline as it runs on a machine with ``workers`` usable CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_usable_cpus", lambda: workers)
        return run_pipeline(documents, config, out)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(_DOCUMENT | st.just(""), min_size=1, max_size=6),
    st.sets(st.integers(0, 5), max_size=3),
    st.integers(2, 3),
)
def test_run_pipeline_output_does_not_depend_on_the_worker_count(texts, unreadable_after, workers):
    config = PipelineConfig(confidence_threshold=0.6, cover_delimiter="^---$")
    with tempfile.TemporaryDirectory() as tmp:
        docs = Path(tmp, "docs")
        docs.mkdir()
        for i, text in enumerate(texts):
            (docs / f"d{i}.txt").write_text(text, encoding="utf-8")
        # d{i}x.txt sorts right after d{i}.txt
        for i in unreadable_after:
            (docs / f"d{i}x.txt").write_bytes(b"\xff not utf-8")
        pairs = [(f"d{i}", text) for i, text in enumerate(texts)]
        skipped = [str(docs / f"d{i}x.txt") for i in sorted(unreadable_after)]
        for documents, expected_skipped in ((docs, skipped), (pairs, [])):
            serial, forked = Path(tmp, "serial"), Path(tmp, "forked")
            stats, report, _ = _with_workers(1, documents, config, serial)
            assert _with_workers(workers, documents, config, forked)[:2] == (stats, report)
            for lang in config.languages:
                name = f"corpus.{lang}.txt"
                assert (forked / name).read_bytes() == (serial / name).read_bytes()
            assert report.files_processed == len(texts)
            assert report.files_skipped == expected_skipped
            assert report.empty_documents >= texts.count("")


def test_run_pipeline_runs_serially_without_fork(tmp_path, monkeypatch):
    monkeypatch.delattr(corpus.os, "fork")
    stats, report, _ = _with_workers(3, _write_docs(tmp_path), PipelineConfig(), tmp_path / "o")
    assert report.files_processed == 4


@contextlib.contextmanager
def _time_limit(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_worker_failure_names_the_document_and_leaves_no_child(tmp_path, monkeypatch, capsys):
    docs = tmp_path / "docs"
    docs.mkdir()
    for i in range(5):
        (docs / f"d{i}.txt").write_text(f"Die Gesellschaft wandelt sich. ({i})\n", encoding="utf-8")
    original = corpus.clean_document

    def clean_or_fail(text, *args):
        if "(3)" in text:
            raise RuntimeError("simulated fault")
        return original(text, *args)

    monkeypatch.setattr(corpus, "clean_document", clean_or_fail)
    monkeypatch.setattr(corpus, "_usable_cpus", lambda: 2)
    with _time_limit(30):
        with pytest.raises(WorkerError) as info:
            run_pipeline(docs, PipelineConfig(), tmp_path / "o")
        message = str(info.value)
        assert str(docs / "d3.txt") in message
        assert "Traceback" in message
        assert "in clean_or_fail" in message
        assert "RuntimeError: simulated fault" in message
        assert main(["clean", "--input", str(docs), "--out", str(tmp_path / "cli")]) == 4
    assert "RuntimeError: simulated fault" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_logs_reach_the_parent_once_in_document_order(tmp_path, monkeypatch, caplog):
    docs = tmp_path / "docs"
    docs.mkdir()
    for i in range(5):
        (docs / f"d{i}.txt").write_text("Die Gesellschaft wandelt sich.\n", encoding="utf-8")
    for name in ("d1x.txt", "d3x.txt"):
        (docs / name).write_bytes(b"\xff not utf-8")
    monkeypatch.setattr(corpus, "_usable_cpus", lambda: 2)
    with caplog.at_level("WARNING"):
        run_pipeline(docs, PipelineConfig(cover_delimiter="^---$"), tmp_path / "o")
    cover = "cover delimiter '^---$' not found; text kept unchanged"
    expected = [cover, cover, f"skipping unreadable input {docs / 'd1x.txt'}", cover, cover,
                f"skipping unreadable input {docs / 'd3x.txt'}", cover, "no output lines for language 'en'"]
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == len(expected)
    assert all(m.startswith(e) for m, e in zip(messages, expected)), messages
    assert {(r.name, r.levelname) for r in caplog.records} == {("embeval.corpus", "WARNING")}
