"""Parse and index a SKOS-style thesaurus: concepts, labels, typed relations.

Two input formats produce the same index: RDF 1.1 N-Triples, of which the
SKOS label and relation predicates are read, and a four-column TSV that is
convenient for fixtures.  Relations between concepts are also materialized
label-to-label, because the evaluation metrics test label membership in
neighbor sets rather than IRI identity.

The broader/narrower closure is built at parse time: every stored broader
edge is queryable as the inverse narrower edge and vice versa.
"""

import functools
import os
import re
from dataclasses import dataclass, field
from typing import BinaryIO, Union

from .errors import ThesaurusFormatError

SKOS_NS = "http://www.w3.org/2004/02/skos/core#"

RELATION_TYPES = ("broader", "narrower", "related", "altLabel")

# The SKOS predicates read: N-Triples names them by IRI, TSV by their values.
_PRED_BY_IRI = {
    SKOS_NS + "prefLabel": "prefLabel",
    SKOS_NS + "altLabel": "altLabel",
    SKOS_NS + "broader": "broader",
    SKOS_NS + "narrower": "narrower",
    SKOS_NS + "related": "related",
}

_INVERSE = {"broader": "narrower", "narrower": "broader"}

_XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"

# The terminals of RDF 1.1 N-Triples (W3C, 2014).  An IRI's group holds its
# text without the brackets, a blank node's group its `_:label` spelling.
# IRI and string bodies are runs of plain characters between escapes, so a
# line is matched without trying each character against each alternative.
_UCHAR = r"\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8}"
_IRI_CHARS = r'[^\x00-\x20<>"{}|^`\\]*'
_IRIREF = rf"<({_IRI_CHARS}(?:(?:{_UCHAR}){_IRI_CHARS})*)>"
_STRING_CHARS = r'[^"\\\n\r]*'
# PN_CHARS: PN_CHARS_BASE, '_', ':', '-', digits and a few marks.  A blank
# node label starts with one of them other than '-', U+00B7 and the marks,
# and may hold dots but not end with one.  The class is written once per
# term, since compiling it costs milliseconds.
_PN_CHARS = (r"A-Za-z\u00c0-\u00d6\u00d8-\u00f6\u00f8-\u02ff\u0370-\u037d\u037f-\u1fff"
             r"\u200c\u200d\u2070-\u218f\u2c00-\u2fef\u3001-\ud7ff\uf900-\ufdcf\ufdf0-\ufffd"
             r"\U00010000-\U000effff_:\-0-9\u00b7\u0300-\u036f\u203f\u2040")
_BLANK_NODE_LABEL = rf"(_:(?![-.\u00b7\u0300-\u036f\u203f\u2040])(?:\.*[{_PN_CHARS}])+)"
_LITERAL = (rf'"({_STRING_CHARS}(?:(?:\\[tbnrf"\'\\]|{_UCHAR}){_STRING_CHARS})*)"'
            r"(?:@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)|\^\^" + _IRIREF + ")?")
_NODE = f"(?:{_IRIREF}|{_BLANK_NODE_LABEL})"
# One line: white space, a triple or nothing, an optional comment and the
# '\r' of a CRLF line end.  Groups: subject (IRI, blank node), predicate,
# object text, object (IRI, blank node, literal body, language, datatype).
_LINE = rf"[ \t]*(?:{_NODE}[ \t]*{_IRIREF}[ \t]*({_NODE}|{_LITERAL})[ \t]*\.[ \t]*)?(?:#.*)?\r?"


@functools.cache
def _line_re() -> re.Pattern:
    """The compiled ``_LINE``, built on first use: compiling it takes about
    10 ms, which a process that imports this module only for its hyphen
    classes (the corpus cascade) never pays."""
    return re.compile(_LINE)


# Word-joining hyphens (incl. soft hyphen) and dashes.  The corpus cascade
# turns them into spaces, and a label is split at them, so both read a
# hyphenated word alike.
HYPHEN_CHARS = "\u002d\u00ad\u2010\u2011"
DASH_CHARS = "\u2012\u2013\u2014"

_HYPHEN_TO_SPACE = re.compile(f"[{HYPHEN_CHARS}{DASH_CHARS}]")

Source = Union[str, os.PathLike, bytes, BinaryIO]


def keyword_tokens(label: str, lowercase: bool = True) -> tuple[str, ...]:
    """Tokens of a thesaurus label, aligned with corpus tokens.

    Hyphens and dashes become spaces before the whitespace split, as the
    corpus cleaning does, so every metric reads a label the same way.
    """
    text = label.lower() if lowercase else label
    return tuple(_HYPHEN_TO_SPACE.sub(" ", text).split())


@dataclass
class Concept:
    """One thesaurus concept with its labeled lexical forms."""

    id: str
    pref_labels: list[tuple[str, str]] = field(default_factory=list)
    alt_labels: list[tuple[str, str]] = field(default_factory=list)

    def add_label(self, kind: str, text: str, lang: str) -> None:
        target = self.pref_labels if kind == "prefLabel" else self.alt_labels
        if (text, lang) not in target:
            target.append((text, lang))


class Thesaurus:
    """Immutable-after-parse index of concepts and typed relations."""

    def __init__(self):
        self.concepts: dict[str, Concept] = {}
        self.edges: dict[str, list[tuple[str, str]]] = {t: [] for t in RELATION_TYPES}
        self._edge_seen: set[tuple[str, str, str]] = set()
        self.skipped_predicates = 0

    def _concept(self, cid: str) -> Concept:
        concept = self.concepts.get(cid)
        if concept is None:
            concept = self.concepts[cid] = Concept(cid)
        return concept

    def _add_edge(self, rel: str, source: str, target: str) -> None:
        if (rel, source, target) in self._edge_seen:
            return
        self._edge_seen.add((rel, source, target))
        self.edges[rel].append((source, target))

    def add_triple(self, subject: str, predicate: str, obj: str, lang: str = "") -> None:
        if predicate in ("prefLabel", "altLabel"):
            self._concept(subject).add_label(predicate, obj, lang)
            if predicate == "altLabel":
                self._add_edge("altLabel", subject, obj)
            return
        if predicate in ("broader", "narrower", "related"):
            self._concept(subject)
            self._concept(obj)
            self._add_edge(predicate, subject, obj)
            inverse = _INVERSE.get(predicate)
            if inverse:
                self._add_edge(inverse, obj, subject)
            return
        raise ValueError(f"unsupported predicate {predicate!r}")


def _unescape(text: str, line_no: int) -> str:
    """``text`` with each UCHAR and ECHAR decoded.  ``_LINE`` lets no other
    backslash through, and each of those escapes means the same in Python."""
    if "\\" not in text:
        return text
    try:
        return text.encode("ascii", "backslashreplace").decode("unicode_escape")
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.end].decode("ascii")
        raise ThesaurusFormatError(f"escape {bad} is beyond U+10FFFF", line_no=line_no) from None


def _decode(source: Source) -> str:
    if isinstance(source, bytes):
        raw = source
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            raw = fh.read()
    else:
        raw = source.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ThesaurusFormatError(f"not valid UTF-8: {exc}") from None


def parse_ntriples_skos(source: Source) -> Thesaurus:
    """Parse the SKOS subset of an RDF 1.1 N-Triples stream.

    Only prefLabel, altLabel, broader, narrower and related predicates are
    interpreted; other predicates are counted and skipped.  A blank node is
    a concept like an IRI, keyed by its ``_:label`` spelling.  A label is a
    literal, plain, language-tagged or typed ``xsd:string``.  Escapes are
    decoded in IRIs and literals alike.  Malformed lines raise with their
    1-based line number.
    """
    text = _decode(source)
    line_re = _line_re()
    th = Thesaurus()
    saw_any = False
    for line_no, line in enumerate(text.split("\n"), start=1):
        m = line_re.fullmatch(line)
        if m is None:
            raise ThesaurusFormatError(f"malformed triple: {line!r}", line_no=line_no)
        s_iri, s_blank, p_iri, obj, o_iri, o_blank, body, lang, datatype = m.groups()
        if p_iri is None:
            continue  # white space or a comment
        saw_any = True
        pred = _PRED_BY_IRI.get(_unescape(p_iri, line_no))
        if pred is None:
            th.skipped_predicates += 1
            continue
        subject = s_blank or _unescape(s_iri, line_no)
        if pred in ("prefLabel", "altLabel"):
            if body is None or (datatype is not None and _unescape(datatype, line_no) != _XSD_STRING):
                raise ThesaurusFormatError(
                    f"{pred} object must be a string literal, got {obj!r}", line_no=line_no
                )
            th.add_triple(subject, pred, _unescape(body, line_no), (lang or "").lower())
        elif body is None:
            th.add_triple(subject, pred, o_blank or _unescape(o_iri, line_no))
        else:
            raise ThesaurusFormatError(
                f"{pred} object must be an IRI or a blank node, got {obj!r}", line_no=line_no
            )
    if not saw_any:
        raise ThesaurusFormatError("empty input: no triples found")
    return th


def parse_tsv(source: Source) -> Thesaurus:
    """Parse the TSV thesaurus format: subject, predicate, object, lang columns."""
    text = _decode(source)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ThesaurusFormatError("missing header line", line_no=1)
    header = lines[0].rstrip("\r").split("\t")
    if header != ["subject", "predicate", "object", "lang"]:
        raise ThesaurusFormatError(f"unexpected header {header!r}", line_no=1)
    th = Thesaurus()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.rstrip("\r").split("\t")
        if len(cols) != 4:
            raise ThesaurusFormatError(
                f"expected 4 columns, found {len(cols)}", line_no=line_no
            )
        subject, predicate, obj, lang = cols
        if predicate not in _PRED_BY_IRI.values():
            raise ThesaurusFormatError(
                f"unknown predicate {predicate!r}", line_no=line_no
            )
        th.add_triple(subject, predicate, obj, lang.lower())
    return th


def keywords(th: Thesaurus, lang: str) -> list[str]:
    """All pref and alt labels in ``lang``, deduplicated, in sorted order.

    ``lang`` is compared in lowercase, as both parsers store tags.
    """
    lang = lang.lower()
    seen: set[str] = set()
    for concept in th.concepts.values():
        for text, tag in concept.pref_labels + concept.alt_labels:
            if tag == lang:
                seen.add(text)
    return sorted(seen)


def descriptor_pairs(th: Thesaurus, relation: str, lang: str) -> tuple[list[tuple[str, str]], int]:
    """Sorted (descriptor label, concept label) pairs for one relation type,
    and the count of edges dropped for lacking a label in ``lang``.

    An edge pairs every prefLabel in ``lang`` of its source with every
    prefLabel in ``lang`` of its target, or, for altLabel, with the alt
    label it names if that label is in ``lang``.  An edge with no label in
    ``lang`` on either side is dropped and counted.  ``lang`` is compared
    in lowercase, as both parsers store tags.  The labels are returned as
    written; how they split into tokens is the caller's to decide.
    """
    if relation not in RELATION_TYPES:
        raise ValueError(f"unknown relation type {relation!r}")
    lang = lang.lower()
    pairs: list[tuple[str, str]] = []
    skipped_no_lang = 0
    for source, target in th.edges[relation]:
        # add_triple creates a concept at both ends of every edge
        src = th.concepts[source]
        src_labels = [t for t, l in src.pref_labels if l == lang]
        if relation == "altLabel":
            # target is the literal itself; language filtering goes through
            # the concept's stored alt label tags
            tgt_labels = [t for t, l in src.alt_labels if l == lang and t == target]
        else:
            tgt_labels = [t for t, l in th.concepts[target].pref_labels if l == lang]
        if not src_labels or not tgt_labels:
            skipped_no_lang += 1
            continue
        pairs += [(d, c) for d in src_labels for c in tgt_labels]
    pairs.sort()
    return pairs, skipped_no_lang
