import pytest
from hypothesis import example, given, settings, strategies as st

from embeval.errors import ThesaurusFormatError
from embeval.thesaurus import (
    descriptor_pairs,
    keyword_tokens,
    keywords,
    parse_ntriples_skos,
    parse_tsv,
    _unescape_literal,
)
from oracles import unescape_literal_oracle

SKOS = "http://www.w3.org/2004/02/skos/core#"


def nt(*triples: str) -> bytes:
    return ("\n".join(triples) + "\n").encode("utf-8")


def test_single_preflabel_triple():
    th = parse_ntriples_skos(
        nt(f'<http://ex/c1> <{SKOS}prefLabel> "soziale Ungleichheit"@de .')
    )
    assert len(th.concepts) == 1
    concept = th.concepts["http://ex/c1"]
    assert concept.pref_labels == [("soziale Ungleichheit", "de")]
    assert concept.is_descriptor


def test_broader_derives_narrower():
    th = parse_ntriples_skos(nt(f"<http://ex/a> <{SKOS}broader> <http://ex/b> ."))
    assert th.edges["broader"] == [("http://ex/a", "http://ex/b")]
    assert th.edges["narrower"] == [("http://ex/b", "http://ex/a")]


def test_narrower_derives_broader():
    th = parse_ntriples_skos(nt(f"<http://ex/a> <{SKOS}narrower> <http://ex/b> ."))
    assert th.edges["broader"] == [("http://ex/b", "http://ex/a")]


def test_mini_fixture_has_all_relation_types(thesaurus_mini_path):
    th = parse_ntriples_skos(thesaurus_mini_path)
    for relation in ("broader", "narrower", "related", "altLabel"):
        assert th.edges[relation], relation
    assert th.skipped_predicates == 1  # the inScheme triple


def test_mini_fixture_keywords_de(thesaurus_mini_path):
    th = parse_ntriples_skos(thesaurus_mini_path)
    assert keywords(th, "de") == [
        "Armut",
        "Bildungsungleichheit",
        "Chancengleichheit",
        "Gesellschaft",
        "Sozialstruktur",
        "Ungleichheit",
        "Verarmung",
        "soziale Ungleichheit",
    ]
    assert keyword_tokens("soziale Ungleichheit", lowercase=False) == ("soziale", "Ungleichheit")
    assert keywords(th, "en") == ["social inequality"]


def test_keywords_deduplicate_across_concepts():
    th = parse_ntriples_skos(
        nt(
            f'<http://ex/a> <{SKOS}prefLabel> "Macht"@de .',
            f'<http://ex/a> <{SKOS}altLabel> "Herrschaft"@de .',
            f'<http://ex/b> <{SKOS}prefLabel> "Herrschaft"@de .',
        )
    )
    assert keywords(th, "de") == ["Herrschaft", "Macht"]


def test_unrecognized_predicates_are_counted():
    th = parse_ntriples_skos(
        nt(
            f'<http://ex/a> <{SKOS}prefLabel> "Macht"@de .',
            "<http://ex/a> <http://purl.org/dc/terms/created> \"2010\" .",
        )
    )
    assert th.skipped_predicates == 1


def test_malformed_triple_reports_line():
    data = nt(f'<http://ex/a> <{SKOS}prefLabel> "Macht"@de .', "not a triple")
    with pytest.raises(ThesaurusFormatError, match="line 2"):
        parse_ntriples_skos(data)


def test_empty_ntriples_is_an_error():
    with pytest.raises(ThesaurusFormatError, match="empty"):
        parse_ntriples_skos(b"\n\n")


def test_literal_escapes():
    th = parse_ntriples_skos(
        nt(f'<http://ex/a> <{SKOS}prefLabel> "a\\"b\\\\c\\nd\\te\\u00e9"@de .')
    )
    assert th.concepts["http://ex/a"].pref_labels == [('a"b\\c\nd\teé', "de")]


# Backslashes, the escape letters, hex digits, a letter that is no hex digit
# and a non-ASCII one: every kind of escape, valid or not, can be drawn.
@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet='\\untr"0123456789abcdefgé', max_size=12))
@example("\\u12")
@example("\\u12g4")
@example("a\\")
def test_unescape_literal_equals_oracle(raw):
    try:
        want = unescape_literal_oracle(raw, 7)
    except ThesaurusFormatError as exc:
        with pytest.raises(ThesaurusFormatError) as excinfo:
            _unescape_literal(raw, 7)
        assert (str(excinfo.value), excinfo.value.line_no) == (str(exc), exc.line_no)
    else:
        assert _unescape_literal(raw, 7) == want


def test_crlf_lines_accepted():
    data = f'<http://ex/a> <{SKOS}prefLabel> "Macht"@de .\r\n'.encode("utf-8")
    th = parse_ntriples_skos(data)
    assert th.concepts["http://ex/a"].pref_labels == [("Macht", "de")]


TSV_HEADER = "subject\tpredicate\tobject\tlang"


def test_tsv_equivalent_to_ntriples():
    triples = nt(
        f'<http://ex/c1> <{SKOS}prefLabel> "Macht"@de .',
        f'<http://ex/c2> <{SKOS}prefLabel> "Staat"@de .',
        f"<http://ex/c1> <{SKOS}broader> <http://ex/c2> .",
    )
    tsv = "\n".join(
        [
            TSV_HEADER,
            "http://ex/c1\tprefLabel\tMacht\tde",
            "http://ex/c2\tprefLabel\tStaat\tde",
            "http://ex/c1\tbroader\thttp://ex/c2\t",
        ]
    ).encode("utf-8")
    a = parse_ntriples_skos(triples)
    b = parse_tsv(tsv)
    assert {c.id: (c.pref_labels, c.alt_labels) for c in a.concepts.values()} == {
        c.id: (c.pref_labels, c.alt_labels) for c in b.concepts.values()
    }
    assert a.edges == b.edges
    assert keywords(a, "de") == keywords(b, "de")


def test_tsv_unknown_predicate_names_row():
    tsv = "\n".join([TSV_HEADER, "s\tprefLabel\tMacht\tde", "s\texactMatch\tx\t"]).encode()
    with pytest.raises(ThesaurusFormatError, match="line 3"):
        parse_tsv(tsv)


def test_tsv_wrong_column_count():
    tsv = "\n".join([TSV_HEADER, "s\tprefLabel\tMacht"]).encode()
    with pytest.raises(ThesaurusFormatError, match="4 columns"):
        parse_tsv(tsv)


def test_tsv_empty_after_header():
    th = parse_tsv((TSV_HEADER + "\n").encode())
    assert len(th.concepts) == 0
    assert keywords(th, "de") == []


def test_descriptor_pairs_two_narrower():
    th = parse_ntriples_skos(
        nt(
            f'<http://ex/d> <{SKOS}prefLabel> "Macht"@de .',
            f'<http://ex/n1> <{SKOS}prefLabel> "Amtsgewalt"@de .',
            f'<http://ex/n2> <{SKOS}prefLabel> "Staatsgewalt"@de .',
            f"<http://ex/d> <{SKOS}narrower> <http://ex/n1> .",
            f"<http://ex/d> <{SKOS}narrower> <http://ex/n2> .",
        )
    )
    sel = descriptor_pairs(th, "narrower", "de", single_word_only=True)
    assert [(p.descriptor_label, p.concept_label) for p in sel.pairs] == [
        ("Macht", "Amtsgewalt"),
        ("Macht", "Staatsgewalt"),
    ]


def test_descriptor_pairs_multiword_filter():
    th = parse_ntriples_skos(
        nt(
            f'<http://ex/d> <{SKOS}prefLabel> "Armut"@de .',
            f'<http://ex/x> <{SKOS}prefLabel> "soziale Ungleichheit"@de .',
            f"<http://ex/d> <{SKOS}related> <http://ex/x> .",
        )
    )
    unfiltered = descriptor_pairs(th, "related", "de")
    assert len(unfiltered.pairs) == 1
    filtered = descriptor_pairs(th, "related", "de", single_word_only=True)
    assert filtered.pairs == []
    assert filtered.skipped_multiword == 1


def test_descriptor_pairs_language_filter_counts_skips():
    th = parse_ntriples_skos(
        nt(
            f'<http://ex/d> <{SKOS}prefLabel> "power"@en .',
            f'<http://ex/x> <{SKOS}prefLabel> "Staat"@de .',
            f"<http://ex/d> <{SKOS}broader> <http://ex/x> .",
        )
    )
    sel = descriptor_pairs(th, "broader", "de")
    assert sel.pairs == []
    assert sel.skipped_no_lang == 1


def test_mini_fixture_pair_totals(thesaurus_mini_path):
    th = parse_ntriples_skos(thesaurus_mini_path)
    # hand-enumerated from the fixture, including broader/narrower closure
    expect_all = {"broader": 3, "narrower": 3, "related": 3, "altLabel": 2}
    expect_single = {"broader": 1, "narrower": 1, "related": 1, "altLabel": 1}
    for relation, count in expect_all.items():
        assert len(descriptor_pairs(th, relation, "de").pairs) == count, relation
    for relation, count in expect_single.items():
        sel = descriptor_pairs(th, relation, "de", single_word_only=True)
        assert len(sel.pairs) == count, relation


def test_mini_fixture_single_word_pairs(thesaurus_mini_path):
    th = parse_ntriples_skos(thesaurus_mini_path)
    got = {
        rel: [(p.descriptor_label, p.concept_label) for p in
              descriptor_pairs(th, rel, "de", single_word_only=True).pairs]
        for rel in ("broader", "narrower", "related", "altLabel")
    }
    assert got == {
        "broader": [("Sozialstruktur", "Gesellschaft")],
        "narrower": [("Gesellschaft", "Sozialstruktur")],
        "related": [("Armut", "Chancengleichheit")],
        "altLabel": [("Armut", "Verarmung")],
    }


def test_hyphenated_label_counts_as_several_words():
    # the corpus cleaning splits "Nord-Süd-Konflikt" into three tokens
    th = parse_ntriples_skos(
        nt(
            f'<http://ex/d> <{SKOS}prefLabel> "Nord-Süd-Konflikt"@de .',
            f'<http://ex/x> <{SKOS}prefLabel> " Konflikt "@de .',
            f'<http://ex/y> <{SKOS}prefLabel> "Konflikt"@de .',
            f"<http://ex/d> <{SKOS}broader> <http://ex/x> .",
            f"<http://ex/y> <{SKOS}broader> <http://ex/x> .",
        )
    )
    sel = descriptor_pairs(th, "broader", "de", single_word_only=True)
    assert [(p.descriptor_label, p.concept_label) for p in sel.pairs] == [("Konflikt", " Konflikt ")]
    assert sel.skipped_multiword == 1


def test_reparse_is_stable(thesaurus_mini_path):
    a = parse_ntriples_skos(thesaurus_mini_path)
    b = parse_ntriples_skos(thesaurus_mini_path)
    assert keywords(a, "de") == keywords(b, "de")
    assert a.edges == b.edges


_IRIS = st.sampled_from(["http://ex/c1", "http://ex/c2", "http://ex/ä3", "urn:x:4"])
_LANGS = st.sampled_from(["", "de", "EN", "de-AT"])
_NAMED_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _triples(tsv_safe: bool):
    """(subject, predicate, object, lang) rows; labels TSV can hold if ``tsv_safe``."""
    chars = st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\t\n" if tsv_safe else ""
    )
    special = st.sampled_from(['"', "\\", "ä", "ß", " ", " ", "."] + ([] if tsv_safe else ["\n", "\t"]))
    label = st.text(chars | special, max_size=8)
    return st.lists(
        st.tuples(_IRIS, st.sampled_from(["prefLabel", "altLabel"]), label, _LANGS)
        | st.tuples(_IRIS, st.sampled_from(["broader", "narrower", "related"]), _IRIS, st.just("")),
        min_size=1, max_size=12,
    )


def _nt_literal(text: str, draw) -> str:
    """``text`` as an N-Triples literal body, each character plain, named or \\u-escaped."""
    out = []
    for ch in text:
        if ord(ch) < 0x10000 and draw(st.booleans()):
            code = f"{ord(ch):04x}"
            out.append("\\u" + (code.upper() if draw(st.booleans()) else code))
        else:
            out.append(_NAMED_ESCAPES.get(ch, ch))
    return "".join(out)


def _nt_lines(triples, draw) -> list[str]:
    lines = []
    for s, p, o, lang in triples:
        if p in ("prefLabel", "altLabel"):
            obj = f'"{_nt_literal(o, draw)}"' + (f"@{lang}" if lang else "")
        else:
            obj = f"<{o}>"
        lines.append(f"<{s}> <{SKOS}{p}> {obj} .")
    return lines


def _tsv_lines(triples) -> list[str]:
    return [TSV_HEADER] + ["\t".join(t) for t in triples]


def _content(th):
    return (
        list(th.concepts),
        {c.id: (c.pref_labels, c.alt_labels) for c in th.concepts.values()},
        th.edges,
    )


def _encode(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(triples=_triples(tsv_safe=False), data=st.data())
def test_ntriples_round_trip_of_escaped_labels(triples, data):
    th = parse_ntriples_skos(_encode(_nt_lines(triples, data.draw)))
    labels = {
        (c.id, kind, text, lang)
        for c in th.concepts.values()
        for kind, pairs in (("prefLabel", c.pref_labels), ("altLabel", c.alt_labels))
        for text, lang in pairs
    }
    assert labels == {
        (s, p, o, lang.lower()) for s, p, o, lang in triples if p in ("prefLabel", "altLabel")
    }
    inverse = {"broader": "narrower", "narrower": "broader"}
    want_edges = set()
    for s, p, o, _ in triples:
        if p != "prefLabel":
            want_edges.add((p, s, o))
        if p in inverse:
            want_edges.add((inverse[p], o, s))
    assert {(rel, s, o) for rel, pairs in th.edges.items() for s, o in pairs} == want_edges


@settings(max_examples=150, deadline=None)
@given(triples=_triples(tsv_safe=True), data=st.data())
def test_tsv_and_ntriples_parse_alike(triples, data):
    a = parse_ntriples_skos(_encode(_nt_lines(triples, data.draw)))
    b = parse_tsv(_encode(_tsv_lines(triples)))
    assert _content(a) == _content(b)


@settings(max_examples=100, deadline=None)
@given(triples=_triples(tsv_safe=True), data=st.data())
def test_thesaurus_parsers_name_the_corrupted_line(triples, data):
    nt_lines = _nt_lines(triples, data.draw)
    i = data.draw(st.integers(0, len(nt_lines) - 1))
    if triples[i][1] in ("prefLabel", "altLabel") and data.draw(st.booleans()):
        nt_lines[i] = nt_lines[i].replace('> "', '> "\\q', 1)  # unknown escape
    else:
        nt_lines[i] = nt_lines[i][: -len(" .")]
    with pytest.raises(ThesaurusFormatError) as excinfo:
        parse_ntriples_skos(_encode(nt_lines))
    assert excinfo.value.line_no == i + 1

    tsv_lines = _tsv_lines(triples)
    j = data.draw(st.integers(1, len(tsv_lines) - 1))
    s, p, o, lang = triples[j - 1]
    tsv_lines[j] = data.draw(st.sampled_from([f"{s}\t{p}\t{o}", f"{s}\texactMatch\t{o}\t{lang}"]))
    with pytest.raises(ThesaurusFormatError) as excinfo:
        parse_tsv(_encode(tsv_lines))
    assert excinfo.value.line_no == j + 1
