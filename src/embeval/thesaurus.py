"""Parse and index a SKOS-style thesaurus: concepts, labels, typed relations.

Two input formats produce the same index: a subset of N-Triples restricted
to the SKOS label and relation predicates, and a four-column TSV that is
convenient for fixtures.  Relations between concepts are also materialized
label-to-label, because the evaluation metrics test label membership in
neighbor sets rather than IRI identity.

The broader/narrower closure is built at parse time: every stored broader
edge is queryable as the inverse narrower edge and vice versa.
"""

import os
import re
from dataclasses import dataclass, field
from typing import BinaryIO, Union

from .errors import ThesaurusFormatError

SKOS_NS = "http://www.w3.org/2004/02/skos/core#"

RELATION_TYPES = ("broader", "narrower", "related", "altLabel")

_PRED_BY_IRI = {
    SKOS_NS + "prefLabel": "prefLabel",
    SKOS_NS + "altLabel": "altLabel",
    SKOS_NS + "broader": "broader",
    SKOS_NS + "narrower": "narrower",
    SKOS_NS + "related": "related",
}

_INVERSE = {"broader": "narrower", "narrower": "broader"}

_TRIPLE_RE = re.compile(r"^<([^<>\s]*)>\s+<([^<>\s]*)>\s+(.+?)\s*\.\s*$")
_LITERAL_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"(?:@([A-Za-z][A-Za-z0-9-]*))?$')
_IRI_RE = re.compile(r"^<([^<>\s]*)>$")

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

    @property
    def is_descriptor(self) -> bool:
        return bool(self.pref_labels)

    def add_label(self, kind: str, text: str, lang: str) -> None:
        target = self.pref_labels if kind == "prefLabel" else self.alt_labels
        if (text, lang) not in target:
            target.append((text, lang))


@dataclass(frozen=True)
class DescriptorPair:
    """One (descriptor label, related-concept label) pair for the relation metrics."""

    descriptor_label: str
    concept_label: str
    relation_type: str
    lang: str


@dataclass
class PairSelection:
    """Descriptor pairs for one relation plus counts of what was filtered out."""

    pairs: list[DescriptorPair]
    skipped_no_lang: int = 0
    skipped_multiword: int = 0


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


# The named escapes of an N-Triples literal.  _ESCAPE_RE's group is what
# follows a backslash: u and up to four characters, one character, or
# nothing at the end of the literal.
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\(u.{0,4}|.|$)", re.DOTALL)


def _unescape_literal(raw: str, line_no: int) -> str:
    def unescape(m: re.Match) -> str:
        esc = m.group(1)
        if not esc:
            raise ThesaurusFormatError("dangling escape in literal", line_no=line_no)
        if esc[0] == "u":
            code = esc[1:]
            if len(code) != 4:
                raise ThesaurusFormatError("truncated \\u escape", line_no=line_no)
            try:
                return chr(int(code, 16))
            except ValueError:
                raise ThesaurusFormatError(
                    f"bad \\u escape {code!r}", line_no=line_no
                ) from None
        if esc not in _ESCAPES:
            raise ThesaurusFormatError(f"unknown escape \\{esc}", line_no=line_no)
        return _ESCAPES[esc]

    return _ESCAPE_RE.sub(unescape, raw)


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
    """Parse the SKOS subset of an N-Triples stream.

    Only prefLabel, altLabel, broader, narrower and related predicates are
    interpreted; other predicates are counted and skipped.  Malformed lines
    raise with their 1-based line number.
    """
    text = _decode(source)
    th = Thesaurus()
    saw_any = False
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip().rstrip("\r")
        if not stripped or stripped.startswith("#"):
            continue
        saw_any = True
        m = _TRIPLE_RE.match(line.rstrip("\r"))
        if not m:
            raise ThesaurusFormatError(f"malformed triple: {stripped!r}", line_no=line_no)
        subject, pred_iri, obj_raw = m.group(1), m.group(2), m.group(3)
        pred = _PRED_BY_IRI.get(pred_iri)
        if pred is None:
            th.skipped_predicates += 1
            continue
        if pred in ("prefLabel", "altLabel"):
            lm = _LITERAL_RE.match(obj_raw)
            if not lm:
                raise ThesaurusFormatError(
                    f"{pred} object must be a literal, got {obj_raw!r}", line_no=line_no
                )
            text_value = _unescape_literal(lm.group(1), line_no)
            lang = (lm.group(2) or "").lower()
            th.add_triple(subject, pred, text_value, lang)
        else:
            im = _IRI_RE.match(obj_raw)
            if not im:
                raise ThesaurusFormatError(
                    f"{pred} object must be an IRI, got {obj_raw!r}", line_no=line_no
                )
            th.add_triple(subject, pred, im.group(1))
    if not saw_any:
        raise ThesaurusFormatError("empty input: no triples found")
    return th


_TSV_PREDICATES = ("prefLabel", "altLabel", "broader", "narrower", "related")


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
        if predicate not in _TSV_PREDICATES:
            raise ThesaurusFormatError(
                f"unknown predicate {predicate!r}", line_no=line_no
            )
        th.add_triple(subject, predicate, obj, lang.lower())
    return th


def keywords(th: Thesaurus, lang: str) -> list[str]:
    """All pref and alt labels in ``lang``, deduplicated, in sorted order."""
    seen: set[str] = set()
    for concept in th.concepts.values():
        for text, tag in concept.pref_labels + concept.alt_labels:
            if tag == lang:
                seen.add(text)
    return sorted(seen)


def descriptor_pairs(
    th: Thesaurus,
    relation: str,
    lang: str,
    single_word_only: bool = False,
) -> PairSelection:
    """(descriptor label, concept label) pairs for one relation type.

    Pairs whose endpoints lack a label in ``lang`` are dropped and counted;
    with ``single_word_only`` any pair with a label of more than one
    ``keyword_tokens`` token on either side is dropped and counted, so a
    hyphenated label counts as several words.
    """
    if relation not in RELATION_TYPES:
        raise ValueError(f"unknown relation type {relation!r}")
    selection = PairSelection(pairs=[])
    for source, target in th.edges[relation]:
        src = th.concepts.get(source)
        if src is None or not src.is_descriptor:
            selection.skipped_no_lang += 1
            continue
        src_labels = [t for t, l in src.pref_labels if l == lang]
        if not src_labels:
            selection.skipped_no_lang += 1
            continue
        if relation == "altLabel":
            # target is the literal itself; language filtering goes through
            # the concept's stored alt label tags
            tgt_labels = [t for t, l in src.alt_labels if l == lang and t == target]
        else:
            tgt = th.concepts.get(target)
            tgt_labels = [t for t, l in tgt.pref_labels if l == lang] if tgt else []
        if not tgt_labels:
            selection.skipped_no_lang += 1
            continue
        for d_label in src_labels:
            for c_label in tgt_labels:
                if single_word_only and not (
                    len(keyword_tokens(d_label)) == len(keyword_tokens(c_label)) == 1
                ):
                    selection.skipped_multiword += 1
                    continue
                selection.pairs.append(
                    DescriptorPair(d_label, c_label, relation, lang)
                )
    selection.pairs.sort(key=lambda p: (p.descriptor_label, p.concept_label))
    return selection
