"""Seeded synthetic inputs: word-vector files, an N-Triples SKOS thesaurus, documents.

Every generator takes the seed and a size record and nothing else, so the
same seed always gives byte-identical files.  The thesaurus plan (which
labels exist, which pairs are related) is derived from the seed first; the
vector generator replays it to plant related words near their descriptors.
"""

from dataclasses import dataclass

import numpy as np

# Lowercase code points of German text; the umlauts and ß make tokens multi-byte.
_LETTERS = np.array([ord(c) for c in "abcdefghijklmnopqrstuvwxyzäöüß"], dtype=np.uint32)
_DIGITS3 = np.array([list(f"{i:03d}".encode()) for i in range(1000)], dtype=np.uint8)
SKOS = "http://www.w3.org/2004/02/skos/core#"


@dataclass(frozen=True)
class VecSize:
    n_vocab: int
    dim: int
    n_models: int = 1        # model i > 0 is model 0 plus noise
    noise: float = 0.0       # std of that noise, relative to the component std
    zero_rows: int = 0       # planted all-zero rows per model


@dataclass(frozen=True)
class ThesaurusSize:
    n_vocab: int             # must match the model's VecSize.n_vocab
    exact: int = 0           # single-word labels found verbatim in the vocabulary
    multiword: int = 0       # two in-vocabulary words, joined by a space or a hyphen
    fuzzy: int = 0           # one edit away from a vocabulary word, not in it
    oov: int = 0             # random words, almost never within s=0.9 of the vocabulary
    descriptors: int = 0     # descriptors carrying broader/narrower/related/altLabel pairs
    planted: float = 0.0     # share of related/altLabel/child concepts placed near their descriptor


@dataclass(frozen=True)
class DocSize:
    n_docs: int
    lines_per_doc: int


def vocabulary(seed: int, n: int) -> list[str]:
    """n distinct random words of 3 to 13 letters."""
    rng = np.random.default_rng([seed, 1])
    out: dict[str, None] = {}
    while len(out) < n:
        m = (n - len(out)) * 11 // 10 + 16
        lens = rng.integers(3, 14, m)
        # the first ten letters are as common as the other twenty together,
        # so words share prefixes the way natural words do
        pick = np.where(rng.random(int(lens.sum())) < 0.5,
                        rng.integers(0, 10, int(lens.sum())),
                        rng.integers(0, len(_LETTERS), int(lens.sum())))
        codes = _LETTERS[pick]
        flat = np.insert(codes, np.cumsum(lens)[:-1], ord("\n")).astype("<u4")
        for w in flat.tobytes().decode("utf-32-le").split("\n"):
            out.setdefault(w, None)
            if len(out) == n:
                break
    return list(out)


def mutate(rng, word: str, vocab_set: set[str], op: int) -> str:
    """A token one substitution (op 0), insertion (1) or deletion (2) away from ``word``, not in the vocabulary."""
    while True:
        i = int(rng.integers(0, len(word)))
        c = chr(int(_LETTERS[rng.integers(0, len(_LETTERS))]))
        out = (word[:i] + c + word[i + 1:], word[:i] + c + word[i:], word[:i] + word[i + 1:])[op]
        if len(out) >= 3 and out not in vocab_set:
            return out


# Lengths of the tokens without an exact hit, cycled.  best_match cost grows
# with the token length and varies least between tokens of 7 and 8 letters,
# so the cost of a coverage command hardly depends on the seed.
MISS_LENGTHS = (7, 8)


@dataclass
class ThesaurusPlan:
    labels: list[str]                       # every prefLabel/altLabel@de, as written
    triples: list[str]
    near: list[tuple[int, int]]             # (descriptor row, concept row) to plant close
    zero_candidates: list[int]              # rows of exact labels, some of which get zero vectors


def thesaurus_plan(seed: int, size: ThesaurusSize) -> ThesaurusPlan:
    vocab = vocabulary(seed, size.n_vocab)
    vocab_set = set(vocab)
    rng = np.random.default_rng([seed, 2])
    rows = rng.permutation(size.n_vocab)
    take = iter(int(r) for r in rows)
    triples: list[str] = []
    labels: list[str] = []
    near: list[tuple[int, int]] = []
    n_concepts = 0

    def concept(label_de: str, label_en: str | None = None) -> str:
        nonlocal n_concepts
        iri = f"<http://example.org/c{n_concepts}>"
        n_concepts += 1
        triples.append(f'{iri} <{SKOS}prefLabel> "{label_de}"@de .')
        labels.append(label_de)
        if label_en is not None:
            triples.append(f'{iri} <{SKOS}prefLabel> "{label_en}"@en .')
        return iri

    def cap(word: str) -> str:
        head = word[0].upper()
        return (head if len(head) == 1 else word[0]) + word[1:]  # "ß".upper() is "SS"

    exact_rows = []
    for _ in range(size.exact):
        r = next(take)
        exact_rows.append(r)
        concept(cap(vocab[r]), vocab[next(take)])
    for i in range(size.multiword):
        a, b = vocab[next(take)], vocab[next(take)]
        concept(f"{cap(a)}-{b}" if i % 2 else f"{cap(a)} {b}")
    for i in range(size.fuzzy):
        length = MISS_LENGTHS[i % len(MISS_LENGTHS)]
        word = next(vocab[r] for r in take if len(vocab[r]) == length)
        concept(cap(mutate(rng, word, vocab_set, i % 3)))
    others = [w for w in vocabulary(seed + 7919, 1000) if w not in vocab_set]
    for i in range(size.oov):
        length = MISS_LENGTHS[-1 - i % len(MISS_LENGTHS)]
        concept(cap(next(w for w in others if len(w) == length)))

    descriptor_rows = [next(take) for _ in range(size.descriptors)]
    iris = [concept(vocab[r]) for r in descriptor_rows]
    for i in range(1, size.descriptors):
        parent = int(rng.integers(0, i))
        triples.append(f"{iris[i]} <{SKOS}broader> {iris[parent]} .")
        if rng.random() < size.planted:
            near.append((descriptor_rows[parent], descriptor_rows[i]))
    for i, d_row in enumerate(descriptor_rows):
        for _ in range(2):
            c_row = next(take)
            triples.append(f"{iris[i]} <{SKOS}related> {concept(vocab[c_row])} .")
            if rng.random() < size.planted:
                near.append((d_row, c_row))
        a_row = next(take)
        triples.append(f'{iris[i]} <{SKOS}altLabel> "{vocab[a_row]}"@de .')
        labels.append(vocab[a_row])
        if rng.random() < size.planted:
            near.append((d_row, a_row))
    return ThesaurusPlan(labels, triples, near, exact_rows)


def gen_thesaurus(seed: int, size: ThesaurusSize) -> bytes:
    """N-Triples text of the planned thesaurus, in shuffled line order."""
    plan = thesaurus_plan(seed, size)
    order = np.random.default_rng([seed, 3]).permutation(len(plan.triples))
    return "".join(plan.triples[i] + "\n" for i in order).encode("utf-8")


def _format_rows(matrix: np.ndarray) -> np.ndarray:
    """Fixed-width text of every component: ' 0.dddddd' or ' -0.ddddd', one row per line."""
    n, dim = matrix.shape
    neg = matrix < 0
    q = np.where(neg, np.rint(-matrix * 1e5), np.rint(matrix * 1e6)).astype(np.int64)
    q = np.minimum(q, np.where(neg, 99_999, 999_999))
    digits = np.concatenate([_DIGITS3[q // 1000], _DIGITS3[q % 1000]], axis=-1)
    cells = np.empty((n, dim, 9), dtype=np.uint8)
    cells[..., 0] = ord(" ")
    cells[..., 1] = np.where(neg, ord("-"), ord("0"))
    cells[..., 2] = np.where(neg, ord("0"), ord("."))
    cells[..., 3] = np.where(neg, ord("."), digits[..., 0])
    cells[..., 4:] = digits[..., 1:]
    newline = np.full((n, 1), ord("\n"), dtype=np.uint8)
    return np.concatenate([cells.reshape(n, dim * 9), newline], axis=1)


def gen_vectors(seed: int, size: VecSize, thesaurus: ThesaurusSize | None = None) -> list[bytes]:
    """``size.n_models`` word-vector files over one shared vocabulary.

    When a thesaurus size is given, its planned related concepts are moved
    next to their descriptors so relational coverage is neither 0 nor 100.
    """
    vocab = vocabulary(seed, size.n_vocab)
    rng = np.random.default_rng([seed, 4])
    base = rng.standard_normal((size.n_vocab, size.dim)) * 0.25
    zero_rows: list[int] = []
    if thesaurus is not None:
        th = thesaurus_plan(seed, thesaurus)
        for d_row, c_row in th.near:
            base[c_row] = base[d_row] + rng.standard_normal(size.dim) * 0.05
        zero_rows = th.zero_candidates[: size.zero_rows]
    out = []
    for m in range(size.n_models):
        matrix = base if m == 0 else base + rng.standard_normal(base.shape) * (0.25 * size.noise)
        matrix = np.clip(matrix, -0.999, 0.999)
        # model m zeroes its own slice of the candidates, so a keyword can be
        # zero in one model and queryable in the other
        matrix[zero_rows[m::size.n_models]] = 0.0
        body = _format_rows(matrix)
        header = f"{size.n_vocab} {size.dim}\n".encode()
        out.append(header + b"".join(w.encode() + r.tobytes() for w, r in zip(vocab, body)))
    return out


_DE_WORDS = (
    "die der das und in den von zu mit sich des auf für ist im dem nicht ein eine "
    "als auch es an werden aus er hat dass sie nach wird bei einer um am sind noch "
    "wie einem über einen so zum war haben nur oder aber vor zur bis mehr durch man "
    "soziale gesellschaft ungleichheit bildung einkommen teilhabe arbeitswelt "
    "lebensläufe menschen forschung daten umfragen statistiken ergebnisse unterschiede "
    "regionen schichten herkunft zugang untersuchung stichprobe bevölkerung macht "
    "herrschaft ordnung wachstum armut entwicklung wohlfahrtsstaat befragten "
    "nachbarschaft versorgung zeitschrift auswertung interviews analyse arbeitslosigkeit "
    "verlauf jahrzehnts vergleich kohorten familiengründung gemeinden engagement "
    "bedeutung faktoren wahlverhalten zwischen deutlich wichtige zentrales thema"
).split()
_EN_WORDS = (
    "the of and to in a is that for it as was with be by on not he this are or "
    "his from at which but have an they you were her she there been one all we "
    "social inequality modern societies central topic sciences studies examine "
    "relationship education income participation public life researchers analyze "
    "survey data official statistics understand processes change results show "
    "differences between regions groups access higher depends strongly family "
    "background study draws representative sample adult population questions power "
    "authority state center debate economic growth poverty publications development "
    "welfare respondents reported trust neighbors local institutions considerable "
    "urban rural service provision findings published journal discussed"
).split()
_DE_SPLIT = ("Gesell-schaft", "Ungleich-heit", "Unter-suchung", "Bevöl-kerung", "Entwick-lung")
_EN_SPLIT = ("inequal-ity", "popula-tion", "develop-ment", "institu-tions", "respon-dents")
_DE_CAMEL = ("SozialForschung", "DatenAnalyse", "MachtStruktur")
_EN_CAMEL = ("SurveyData", "WelfareState", "PublicLife")


def _sentence(rng, words, split, camel) -> str:
    n = int(rng.integers(9, 17))
    toks = [words[int(i)] for i in rng.integers(0, len(words), n)]
    toks[0] = toks[0].capitalize()
    r = rng.random()
    if r < 0.25:
        toks.insert(int(rng.integers(1, n)), str(int(rng.integers(0, 3000))))
    elif r < 0.35:
        toks.insert(int(rng.integers(1, n)), f"({int(rng.integers(1, 200))})")
    if rng.random() < 0.2:
        toks.insert(int(rng.integers(1, n)), camel[int(rng.integers(0, len(camel)))])
    line = " ".join(toks) + "."
    if rng.random() < 0.15:
        head, tail = split[int(rng.integers(0, len(split)))].split("-")
        line = f"{line} {head}-\n{tail} {words[int(rng.integers(0, len(words)))]}."
    return line


def gen_documents(seed: int, size: DocSize) -> list[tuple[str, bytes]]:
    """(file name, UTF-8 text) per document: a cover page, then German and English lines."""
    rng = np.random.default_rng([seed, 5])
    docs = []
    pool: list[str] = []
    for d in range(size.n_docs):
        lines = [f"Titel {d}", f"Report {int(rng.integers(1, 99))}", "---"]
        lang_de = rng.random() < 0.6
        for _ in range(size.lines_per_doc):
            r = rng.random()
            if pool and r < 0.1:
                lines.append(pool[int(rng.integers(0, len(pool)))])  # repeated sentence
            elif r < 0.13:
                lines.append(str(int(rng.integers(1, 400))))          # page number
            else:
                mine = lang_de if rng.random() < 0.85 else not lang_de
                line = (_sentence(rng, _DE_WORDS, _DE_SPLIT, _DE_CAMEL) if mine
                        else _sentence(rng, _EN_WORDS, _EN_SPLIT, _EN_CAMEL))
                lines.append(line)
                if rng.random() < 0.05:
                    pool.append(line)
        docs.append((f"doc{d:04d}.txt", ("\n".join(lines) + "\n").encode("utf-8")))
    return docs
