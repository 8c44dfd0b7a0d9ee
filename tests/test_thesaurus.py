import pytest
from hypothesis import example, given, settings, strategies as st

from embeval.cli import relation_pairs
from embeval.errors import ThesaurusFormatError
from embeval.thesaurus import (
    RELATION_TYPES,
    Thesaurus,
    descriptor_pairs,
    keyword_tokens,
    keywords,
    parse_ntriples_skos,
    parse_tsv,
)
from oracles import descriptor_pairs_oracle, unescape_literal_oracle

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
            '_:b1 <http://purl.org/dc/terms/creator> "x" .',
        )
    )
    assert th.skipped_predicates == 2
    assert list(th.concepts) == ["http://ex/a"]


def test_malformed_triple_reports_line():
    data = nt(f'<http://ex/a> <{SKOS}prefLabel> "Macht"@de .', "not a triple")
    with pytest.raises(ThesaurusFormatError, match="line 2"):
        parse_ntriples_skos(data)


def test_empty_ntriples_is_an_error():
    with pytest.raises(ThesaurusFormatError, match="empty"):
        parse_ntriples_skos(b"\n\n")


def test_literal_escapes():
    th = parse_ntriples_skos(
        nt(f'<http://ex/a> <{SKOS}prefLabel> "a\\"b\\\\c\\nd\\te\\u00e9\\U0001F600\\b\\f\\\'"@de .')
    )
    assert th.concepts["http://ex/a"].pref_labels == [('a"b\\c\nd\teé\U0001F600\b\f\'', "de")]


# Backslashes, the escape letters, quotes, hex digits, a letter that is no
# hex digit and a non-ASCII one: every kind of escape, valid or not, can be
# drawn.  The literal sits on line 7, so errors must name that line.
@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet='\\untrbfU\'"0123456789abcdefgé', max_size=12))
@example("\\u12")
@example("\\u12g4")
@example("a\\")
@example("\\U0001F600")
@example("\\U0001F60")
@example("\\U00110000")
def test_unescape_literal_equals_oracle(raw):
    data = nt(*["# line"] * 6, f'<http://ex/a> <{SKOS}prefLabel> "{raw}"@de .')
    try:
        want = unescape_literal_oracle(raw, 7)
    except ThesaurusFormatError as exc:
        with pytest.raises(ThesaurusFormatError) as excinfo:
            parse_ntriples_skos(data)
        assert excinfo.value.line_no == exc.line_no
    else:
        assert parse_ntriples_skos(data).concepts["http://ex/a"].pref_labels == [(want, "de")]


def test_crlf_lines_accepted():
    data = f'<http://ex/a> <{SKOS}prefLabel> "Macht"@de .\r\n'.encode("utf-8")
    th = parse_ntriples_skos(data)
    assert th.concepts["http://ex/a"].pref_labels == [("Macht", "de")]


# N-Triples allows white space around terms, or none, and a comment after
# a '#' outside an IRI or literal; a '#' inside either is text.
@pytest.mark.parametrize("line, label", [
    (f'  <http://ex/a> <{SKOS}prefLabel> "Macht"@de .', "Macht"),
    (f'\t<http://ex/a>\t<{SKOS}prefLabel>\t"Macht"@de\t.\t', "Macht"),
    (f'<http://ex/a> <{SKOS}prefLabel> "Macht"@de . # c', "Macht"),
    (f'<http://ex/a> <{SKOS}prefLabel> "Macht"@de .# c "d" .', "Macht"),
    (f'<http://ex/a> <{SKOS}prefLabel> "a . # b"@de .', "a . # b"),
    (f'<http://ex/a> <{SKOS}prefLabel> "a . # b"@de . # c', "a . # b"),
    (f'<http://ex/a> <{SKOS}prefLabel> "a\\" . # b"@de .', 'a" . # b'),
    (f'<http://ex/a><{SKOS}prefLabel>"Macht"@de.#c', "Macht"),
])
def test_white_space_and_comments_around_terms(line, label):
    th = parse_ntriples_skos(nt("  # a comment line", line))
    assert th.concepts["http://ex/a"].pref_labels == [(label, "de")]


def test_comment_after_an_iri_holding_a_hash():
    th = parse_ntriples_skos(nt(f"<http://ex/a#1> <{SKOS}broader> <http://ex/b#2> . # c"))
    assert th.edges["broader"] == [("http://ex/a#1", "http://ex/b#2")]


def test_a_comment_cannot_hide_the_closing_dot():
    with pytest.raises(ThesaurusFormatError, match="line 1: malformed triple"):
        parse_ntriples_skos(nt(f'<http://ex/a> <{SKOS}prefLabel> "Macht"@de # .'))


TSV_HEADER = "subject\tpredicate\tobject\tlang"


# Spellings that RDF 1.1 N-Triples allows, each read as the TSV row that
# holds its triple verbatim.
@pytest.mark.parametrize("line, row", [
    (f'<http://ex/a> <{SKOS}prefLabel> "Macht"^^<http://www.w3.org/2001/XMLSchema#string> .',
     "http://ex/a\tprefLabel\tMacht\t"),
    (f"<http://ex/a> <{SKOS}broader> _:b2 .", "http://ex/a\tbroader\t_:b2\t"),
    (f'_:b1 <{SKOS}altLabel> "Macht"@de .', "_:b1\taltLabel\tMacht\tde"),
    (f"<http://ex/\\u00e4> <{SKOS}related> <http://ex/ä> .", "http://ex/ä\trelated\thttp://ex/ä\t"),
    (f"<http://ex/a> <{SKOS[:-1]}\\U00000023narrower> <http://ex/b> .",
     "http://ex/a\tnarrower\thttp://ex/b\t"),
])
def test_ntriples_spellings_read_as_their_tsv_row(line, row):
    a = parse_ntriples_skos(nt(line))
    b = parse_tsv(nt(TSV_HEADER, row))
    assert _content(a) == _content(b)


@pytest.mark.parametrize("obj", ['"1"^^<http://www.w3.org/2001/XMLSchema#integer>', "<http://ex/b>"])
def test_a_label_must_be_a_string_literal(obj):
    with pytest.raises(ThesaurusFormatError, match="line 2: prefLabel object must be a string literal"):
        parse_ntriples_skos(nt("", f"<http://ex/a> <{SKOS}prefLabel> {obj} ."))


def test_a_relation_object_must_not_be_a_literal():
    with pytest.raises(ThesaurusFormatError, match="line 1: broader object must be an IRI or a blank"):
        parse_ntriples_skos(nt(f'<http://ex/a> <{SKOS}broader> "b" .'))


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
    pairs, _, _ = relation_pairs(th, "de", lowercase=False, single_word_only=True)
    assert pairs["narrower"] == [
        (("Macht",), ("Amtsgewalt",)),
        (("Macht",), ("Staatsgewalt",)),
    ]


def test_descriptor_pairs_multiword_filter():
    th = parse_ntriples_skos(
        nt(
            f'<http://ex/d> <{SKOS}prefLabel> "Armut"@de .',
            f'<http://ex/x> <{SKOS}prefLabel> "soziale Ungleichheit"@de .',
            f"<http://ex/d> <{SKOS}related> <http://ex/x> .",
        )
    )
    unfiltered, _ = descriptor_pairs(th, "related", "de")
    assert len(unfiltered) == 1
    pairs, _, multiword = relation_pairs(th, "de", lowercase=True, single_word_only=True)
    assert pairs["related"] == []
    assert multiword["related"] == 1


def test_descriptor_pairs_language_filter_counts_skips():
    th = parse_ntriples_skos(
        nt(
            f'<http://ex/d> <{SKOS}prefLabel> "power"@en .',
            f'<http://ex/x> <{SKOS}prefLabel> "Staat"@de .',
            f"<http://ex/d> <{SKOS}broader> <http://ex/x> .",
        )
    )
    assert descriptor_pairs(th, "broader", "de") == ([], 1)


def test_mini_fixture_pair_totals(thesaurus_mini_path):
    th = parse_ntriples_skos(thesaurus_mini_path)
    # hand-enumerated from the fixture, including broader/narrower closure
    expect_all = {"broader": 3, "narrower": 3, "related": 3, "altLabel": 2}
    expect_single = {"broader": 1, "narrower": 1, "related": 1, "altLabel": 1}
    for relation, count in expect_all.items():
        assert len(descriptor_pairs(th, relation, "de")[0]) == count, relation
    pairs, _, _ = relation_pairs(th, "de", lowercase=True, single_word_only=True)
    for relation, count in expect_single.items():
        assert len(pairs[relation]) == count, relation


def test_mini_fixture_single_word_pairs(thesaurus_mini_path):
    th = parse_ntriples_skos(thesaurus_mini_path)
    got, _, _ = relation_pairs(th, "de", lowercase=False, single_word_only=True)
    assert got == {
        "broader": [(("Sozialstruktur",), ("Gesellschaft",))],
        "narrower": [(("Gesellschaft",), ("Sozialstruktur",))],
        "related": [(("Armut",), ("Chancengleichheit",))],
        "altLabel": [(("Armut",), ("Verarmung",))],
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
    pairs, _, multiword = relation_pairs(th, "de", lowercase=False, single_word_only=True)
    # the pair of "Konflikt" and " Konflikt "
    assert pairs["broader"] == [(("Konflikt",), ("Konflikt",))]
    assert multiword["broader"] == 1


def test_reparse_is_stable(thesaurus_mini_path):
    a = parse_ntriples_skos(thesaurus_mini_path)
    b = parse_ntriples_skos(thesaurus_mini_path)
    assert keywords(a, "de") == keywords(b, "de")
    assert a.edges == b.edges


_IRIS = st.sampled_from(["http://ex/c1", "http://ex/c2", "http://ex/ä3", "urn:x:4", "_:b5"])
_LANGS = st.sampled_from(["", "de", "EN", "de-AT"])
_ECHARS = {"\t": "\\t", "\b": "\\b", "\n": "\\n", "\r": "\\r", "\f": "\\f",
           '"': '\\"', "'": "\\'", "\\": "\\\\"}
_XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
_DCT = "http://purl.org/dc/terms/"
# Lines that add no triple to a thesaurus: white space, comments, and
# blank-node metadata under predicates the parser skips.
_EXTRA_LINES = st.sampled_from([
    "", " \t", "# c", '  #"a . # b"@de .',
    f'_:b5 <{_DCT}creator> "x" .', f"<http://ex/c1><{_DCT}creator>_:m1.",
    f'_:m1 <{_DCT}date> "2013"^^<http://www.w3.org/2001/XMLSchema#gYear> .',
])
_SEPARATORS = st.sampled_from(["", " ", "\t", "  "])
_TAILS = st.sampled_from(["", " ", "\r", " # c", '#"d" . <e>', "\t# c\r"])


def _triples(tsv_safe: bool):
    """(subject, predicate, object, lang) rows; labels TSV can hold if ``tsv_safe``."""
    chars = st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\t\n" if tsv_safe else ""
    )
    special = st.sampled_from(['"', "\\", "'", "ä", "ß", "\U0001F600", " ", " ", "."]
                              + ([] if tsv_safe else ["\n", "\t", "\r"]))
    label = st.text(chars | special, max_size=8)
    return st.lists(
        st.tuples(_IRIS, st.sampled_from(["prefLabel", "altLabel"]), label, _LANGS)
        | st.tuples(_IRIS, st.sampled_from(["broader", "narrower", "related"]), _IRIS, st.just("")),
        min_size=1, max_size=12,
    )


def _nt_escaped(draw, text: str, echars: dict[str, str]) -> str:
    """``text`` as an IRI or literal body: each character plain where the
    grammar lets it stand, as one of ``echars``, or \\u- or \\U-escaped.
    Up to three characters that could stand plain are escaped."""
    escaped = draw(st.sets(st.integers(0, len(text) - 1), max_size=3)) if text else set()
    out = []
    for i, ch in enumerate(text):
        if ch not in '"\\\n\r' and i not in escaped:
            out.append(ch)
            continue
        spellings = [echars[ch]] if ch in echars else []
        if ord(ch) < 0x10000:
            spellings += [f"\\u{ord(ch):04x}", f"\\u{ord(ch):04X}"]
        spellings.append(f"\\U{ord(ch):08x}")
        out.append(draw(st.sampled_from(spellings)))
    return "".join(out)


def _nt_node(draw, node: str) -> str:
    return node if node.startswith("_:") else f"<{_nt_escaped(draw, node, {})}>"


@st.composite
def _nt_terms(draw, triple) -> list[str]:
    """The subject, predicate and object of ``triple`` in N-Triples spelling."""
    s, p, o, lang = triple
    if p in ("prefLabel", "altLabel"):
        obj = f'"{_nt_escaped(draw, o, _ECHARS)}"'
        if lang:
            obj += f"@{lang}"
        elif draw(st.booleans()):
            obj += "^^" + _nt_node(draw, _XSD_STRING)
    else:
        obj = _nt_node(draw, o)
    return [_nt_node(draw, s), _nt_node(draw, SKOS + p), obj]


@st.composite
def _nt_lines(draw, triples) -> list[str]:
    """An N-Triples document of ``triples``, with or without white space
    between the terms, comments and lines that add no triple."""
    lines = []
    for triple in triples:
        lines += draw(st.lists(_EXTRA_LINES, max_size=2))
        terms = draw(_nt_terms(triple)) + ["."]
        lines.append("".join(draw(_SEPARATORS) + term for term in terms) + draw(_TAILS))
    return lines + draw(st.lists(_EXTRA_LINES, max_size=2))


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
    th = parse_ntriples_skos(_encode(data.draw(_nt_lines(triples))))
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
    a = parse_ntriples_skos(_encode(data.draw(_nt_lines(triples))))
    b = parse_tsv(_encode(_tsv_lines(triples)))
    assert _content(a) == _content(b)


@settings(max_examples=100, deadline=None)
@given(triples=_triples(tsv_safe=True), data=st.data())
def test_thesaurus_parsers_name_the_corrupted_line(triples, data):
    nt_lines = [" ".join(data.draw(_nt_terms(t))) + " ." for t in triples]
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


# Labels of one or more tokens: spaces, word-joining hyphens and dashes.
_PAIR_LABELS = st.sampled_from(["Macht", "soziale Frage", "Nord-Süd", " Konflikt ", "a\u2013b", ""]) | st.text(
    alphabet="aBä -\u00ad\u2013", max_size=6)


@st.composite
def _pair_thesauri(draw):
    """A language and (subject, predicate, object, tag) rows, most labels
    tagged with that language, so that relations often hold several pairs."""
    lang = draw(_LANGS)
    tags = st.sampled_from([lang, lang.upper()]) | _LANGS
    triples = draw(st.lists(
        st.tuples(_IRIS, st.sampled_from(["prefLabel", "prefLabel", "altLabel"]), _PAIR_LABELS, tags)
        | st.tuples(_IRIS, st.sampled_from(["broader", "narrower", "related"]), _IRIS, st.just("")),
        min_size=6, max_size=24,
    ))
    return lang, triples


@settings(max_examples=300, deadline=None)
@given(thesaurus=_pair_thesauri(), lowercase=st.booleans(), single_word_only=st.booleans())
def test_relation_pairs_equal_the_descriptor_pairs_oracle(thesaurus, lowercase, single_word_only):
    lang, triples = thesaurus
    th = Thesaurus()
    for s, p, o, tag in triples:
        th.add_triple(s, p, o, tag.lower())  # tags stored as both parsers store them
    pairs, no_lang, multiword = relation_pairs(th, lang, lowercase, single_word_only)
    assert list(pairs) == list(RELATION_TYPES)
    for rel in RELATION_TYPES:
        want, want_no_lang, want_multiword = descriptor_pairs_oracle(th, rel, lang, single_word_only)
        assert pairs[rel] == [(keyword_tokens(d, lowercase), keyword_tokens(c, lowercase))
                              for d, c in want], rel
        assert (no_lang[rel], multiword[rel]) == (want_no_lang, want_multiword), rel
