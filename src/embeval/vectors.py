"""Loading and querying word-embedding models in word-vector text format.

The format is the plain-text one used by common embedding trainers: a header
line ``<count> <dim>`` followed by one line per word holding the token and
``dim`` space-separated decimal numbers.  ``load_vec`` is the only way a
model is built.  Models are immutable once loaded; concurrent readers are
safe.

``load_vec`` streams the file in fixed-size blocks and scales each parsed
chunk's rows to unit length as it stores them, so loading holds one
matrix, the model's unit rows, and the vocabulary plus about one block,
never the file's bytes, text or list of lines, nor its raw components.
Both loaders note each chunk's zero rows as they parse it.  ``load_vocab``
runs the same reader with the same checks but drops each chunk's rows
once their zero rows are noted, for a command that reads only the
vocabulary: it holds no matrix at all.
"""

import codecs
import hashlib
import itertools
import logging
import os
import warnings
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Sequence, Union

import numpy as np

from .errors import VecFormatError

logger = logging.getLogger(__name__)

Source = Union[str, os.PathLike, bytes, BinaryIO]


class EmbeddingModel:
    """A vocabulary plus the unit rows of its vectors, one array per model.

    ``load_vec`` builds every model: it checks the file's tokens and
    components and scales each row to unit length a chunk at a time, and
    the model keeps those rows as they are, read-only.  ``zero_rows`` flags
    the rows whose vector is all zeros, as the loader found them (a nonzero
    row stays nonzero): they are legal in input files but cosine similarity
    is undefined for them, so neighbor queries skip them.  ``source_digest``
    is the SHA-256 of the bytes the model was loaded from and keys the
    on-disk neighbor cache.
    """

    def __init__(self, name: str, dim: int, vocab: list[str], unit: np.ndarray,
                 zero_rows: frozenset[int], source_digest: str):
        self.name, self.dim, self.vocab, self.source_digest = name, dim, vocab, source_digest
        self.index = dict(zip(vocab, range(len(vocab))))
        self.zero_rows = zero_rows
        unit.flags.writeable = False
        self._unit = unit

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __len__(self) -> int:
        return len(self.vocab)

    def unit_matrix(self) -> np.ndarray:
        """The model's read-only unit rows (zero rows stay zero), as stored."""
        return self._unit


# The token rules, stated once for both loaders: a token is not empty,
# holds no whitespace ``str.split()`` splits on, and does not repeat.
# ``_plain`` tests the first two for a batch of tokens at C speed;
# ``_token_error`` tests one token and words what is wrong with it.
def _plain(tokens: Sequence[str]) -> bool:
    """Whether a join and a whitespace split give ``tokens`` back."""
    return " ".join(tokens).split() == list(tokens)


def _token_error(token: str, seen: set[str]) -> str | None:
    """What is wrong with ``token`` after the tokens ``seen``, or None."""
    if not token:
        return "empty token"
    if token.split() != [token]:
        return f"token {token!r} contains whitespace"
    if token in seen:
        return f"duplicate token {token!r}"
    return None


# Bytes read, hashed and decoded at a time.  The loader holds one block's
# text and its lines next to the vocabulary and the unit rows; the bytes
# are dropped once decoded.
_BLOCK = 1 << 20
# Kept body lines whose components one np.loadtxt call parses.  8192 was no
# faster and raised a two-model diversity run's peak RSS by about 10 MB.
_CHUNK = 1024
# ASCII separators that numpy strips around a number as whitespace but
# float() rejects; the lines of a block holding one are parsed by float()
# alone.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def load_vec(source: Source, name: str) -> EmbeddingModel:
    """Parse a word-vector text file into an EmbeddingModel.

    The file is read, hashed and decoded ``_BLOCK`` bytes at a time, so it
    is never held whole: memory peaks at the unit rows and the vocabulary
    plus about one block.  A component is accepted when ``float()`` accepts
    it and the result is finite.  The numbers of up to ``_CHUNK`` complete
    lines of a block are parsed by one ``np.loadtxt`` call, after C-level
    checks of the chunk's structure; a chunk failing them is checked line
    by line, and the first failing line of the file names the error.  Each
    parsed chunk is normalized into the model's rows, bit for bit as
    normalizing the whole raw matrix would, and the model keeps no raw row.

    Errors take this precedence: invalid UTF-8 anywhere in the file, then
    a BOM, an empty file or a malformed header, then a row count that is
    not the header's, then the first failing body line.  After an error
    the rest of the file is only decoded and its lines counted.
    """
    body, digest = _read(source, name, keep_rows=True)
    return body.model(digest)


@dataclass(frozen=True)
class Vocabulary:
    """What ``load_vocab`` keeps of a model: its tokens, not its vectors.

    ``zero_rows`` and ``source_digest`` are those ``load_vec`` gives the
    model of the same file.
    """

    name: str
    dim: int
    vocab: list[str]
    zero_rows: frozenset[int]
    source_digest: str


def load_vocab(source: Source, name: str) -> Vocabulary:
    """The vocabulary of a word-vector text file, validated as ``load_vec`` does.

    Every component is parsed and checked as ``load_vec`` checks it, but
    each chunk's rows are dropped once their zero rows are counted: memory
    holds the vocabulary, the set of its tokens that finds duplicates and
    about one block, never the matrix.  So ``load_vocab`` raises what
    ``load_vec`` raises for a malformed file, except the two errors of
    sizing the matrix: that the header's rows do not fit in memory, and
    that the dimension of a file without rows is too large.
    """
    body, digest = _read(source, name, keep_rows=False)
    return Vocabulary(name, body.dim, body.vocab, frozenset(body.zero_rows), digest)


def _read(source: Source, name: str, keep_rows: bool) -> tuple["_Body", str]:
    """Read and check the whole file; return its parsed body and sha256.

    ``keep_rows`` says whether the body keeps the parsed rows; it notes
    their zero rows either way, and a file that holds any gets one
    warning.  The checks, their messages and their precedence do not
    depend on it.
    """
    digest = hashlib.sha256()
    body: _Body | None = None
    error: VecFormatError | None = None
    carry: list[str] = []  # the text of the line still open, in pieces
    newlines = 0
    open_tail = False  # the text read so far does not end in a newline
    for text in _texts(source, digest):
        if not text:
            continue
        n = text.count("\n")
        newlines += n
        open_tail = not text.endswith("\n")
        if error is not None:
            continue
        if not n:
            carry.append(text)
            continue
        lines = text.split("\n")
        lines[0] = "".join(carry) + lines[0]
        carry = [lines.pop()]
        use_loadtxt = _loadtxt_safe(text) and _loadtxt_safe(lines[0])
        del text
        try:
            if body is None:
                body = _Body(name, *_header(lines[0]), keep_rows)
                del lines[0]
            body.feed(lines, use_loadtxt)
        except VecFormatError as exc:
            error = exc
            carry = []
        del lines
    last = "".join(carry)
    if last:  # the file does not end in a newline, and no error stopped parsing
        try:
            if body is None:
                body = _Body(name, *_header(last), keep_rows)
            else:
                body.feed([last], _loadtxt_safe(last))
        except VecFormatError as exc:
            error = exc
    if body is None:
        raise error or VecFormatError("empty file", line_no=1)
    rows = newlines + open_tail - 1
    if rows != body.count:
        raise VecFormatError(f"header declares {body.count} rows but file has {rows}")
    if error is not None:
        raise error
    if body.zero_rows:
        logger.warning("%s: %d zero vector(s) in input", name, len(body.zero_rows))
    return body, digest.hexdigest()


def _blocks(source: Source) -> Iterator[bytes]:
    """The bytes of ``source``, ``_BLOCK`` at a time."""
    if isinstance(source, bytes):
        for start in range(0, len(source), _BLOCK):
            yield source[start : start + _BLOCK]
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            yield from iter(lambda: fh.read(_BLOCK), b"")
    else:
        yield from iter(lambda: source.read(_BLOCK), b"")


def _texts(source: Source, digest) -> Iterator[str]:
    """The decoded text of each block of ``source``, whose bytes go to ``digest``.

    A multi-byte character split between blocks is decoded with the later
    one.  Invalid UTF-8 is a VecFormatError worded as ``bytes.decode`` of
    the whole file words it, with the byte position in the file.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    position = 0  # bytes passed to the decoder

    def decode(block: bytes) -> str:
        nonlocal position
        digest.update(block)
        text = _decode(decoder, block, position)
        position += len(block)
        return text

    # no frame here holds a block or its text while the caller splits it
    yield from map(decode, _blocks(source))
    yield _decode(decoder, b"", position, final=True)


def _decode(decoder, data: bytes, position: int, final: bool = False) -> str:
    # the decoder still holds the bytes of a character begun before ``data``
    offset = position - len(decoder.getstate()[0])
    try:
        return decoder.decode(data, final)
    except UnicodeDecodeError as exc:
        start, end = offset + exc.start, offset + exc.end
        if exc.end - exc.start == 1:
            what = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
        else:
            what = f"bytes in position {start}-{end - 1}"
        raise VecFormatError(
            f"not valid UTF-8: 'utf-8' codec can't decode {what}: {exc.reason}"
        ) from None


def _loadtxt_safe(text: str) -> bool:
    return not any(c in text for c in _LOADTXT_ONLY_SPACE)


def _header(line: str) -> tuple[int, int]:
    """The row count and dimension of the header line."""
    if line.startswith("\ufeff"):
        raise VecFormatError("file starts with a BOM", line_no=1)
    fields = line.split(" ")
    if len(fields) != 2 or not fields[0].isdecimal() or not fields[1].isdecimal():
        raise VecFormatError(f"malformed header {line!r}", line_no=1)
    try:
        count, dim = int(fields[0]), int(fields[1])
    except ValueError:  # more digits than int() converts
        raise VecFormatError(f"malformed header {line!r}", line_no=1) from None
    if dim <= 0:
        raise VecFormatError(f"dimension must be positive, got {dim}", line_no=1)
    return count, dim


class _Body:
    """The vocabulary, the zero rows and, if kept, the unit rows of a
    file's body lines, fed a block at a time."""

    def __init__(self, name: str, count: int, dim: int, keep_rows: bool):
        self.name = name
        self.count = count
        self.dim = dim
        self.keep_rows = keep_rows
        self.vocab: list[str] = []
        self.seen: set[str] = set()
        self.zero_rows: list[int] = []
        # allocated once the first chunk has parsed, so a header's
        # dimension is backed by a body line before it sizes an array
        self.rows: np.ndarray | None = None
        self.lines = 0  # body lines fed

    def feed(self, lines: list[str], use_loadtxt: bool) -> None:
        """Parse body lines in chunks; raises VecFormatError at the first failing one."""
        for start in range(0, len(lines), _CHUNK):
            chunk = lines[start : start + _CHUNK]
            first = self.lines + 2  # file line of chunk[0]
            self.lines += len(chunk)
            if self.lines > self.count:
                # stops parsing; load_vec reports the row count at EOF
                raise VecFormatError(f"header declares {self.count} rows but file has more")
            rests, line_nos, error = self._check(chunk, first)
            # an error on an earlier line of the chunk wins
            self._store(rests, line_nos, use_loadtxt)
            if error is not None:
                raise error

    def _check(self, chunk: list[str], first: int):
        """Append the chunk's tokens up to its first failing line; return their
        component strings, their line numbers and that line's error, if any.

        C-level calls check the whole chunk: every line holds ``dim``
        spaces, the tokens survive a join and whitespace split (none is
        empty or holds whitespace), and none repeats.  Only a chunk that
        fails is checked line by line.
        """
        if set(map(str.count, chunk, itertools.repeat(" "))) == {self.dim}:
            tokens, _, rests = zip(*map(str.partition, chunk, itertools.repeat(" ")))
            distinct = set(tokens)
            if len(distinct) == len(tokens) and self.seen.isdisjoint(distinct) and _plain(tokens):
                self.seen |= distinct
                self.vocab += tokens
                return rests, range(first, first + len(chunk)), None
        return self._check_lines(chunk, first)

    def _check_lines(self, chunk: list[str], first: int):
        rests: list[str] = []
        line_nos: list[int] = []
        for line_no, line in enumerate(chunk, start=first):
            token, _, rest = line.partition(" ")
            if line.count(" ") != self.dim:
                error = f"expected token plus {self.dim} components, found {line.count(' ')}"
            else:
                error = _token_error(token, self.seen)
            if error is not None:
                return rests, line_nos, VecFormatError(error, line_no=line_no)
            self.seen.add(token)
            self.vocab.append(token)
            rests.append(rest)
            line_nos.append(line_no)
        return rests, line_nos, None

    def _store(self, rests, line_nos, use_loadtxt: bool) -> None:
        """Parse the components of the last ``len(rests)`` tokens, note their
        zero rows and, if rows are kept, store them as unit rows."""
        if not rests:
            return
        block = _parse_components(rests, line_nos, self.dim, use_loadtxt)
        start = len(self.vocab) - len(rests)
        self.zero_rows += (np.flatnonzero(~block.any(axis=1)) + start).tolist()
        if not self.keep_rows:
            return
        if self.rows is None:
            try:
                self.rows = np.empty((self.count, self.dim), dtype=np.float64)
            except (ValueError, MemoryError):
                # reported only if the file does hold ``count`` rows
                raise VecFormatError(
                    f"{self.count} rows of dimension {self.dim} do not fit in memory",
                    line_no=1,
                ) from None
        _normalize_matrix(block, out=self.rows[start : start + len(rests)])

    def model(self, digest: str) -> EmbeddingModel:
        self.seen.clear()
        rows = self.rows
        if rows is None:
            try:
                rows = np.empty((0, self.dim), dtype=np.float64)
            except ValueError:
                raise VecFormatError(f"dimension {self.dim} is too large", line_no=1) from None
        return EmbeddingModel(self.name, self.dim, self.vocab, rows[: len(self.vocab)],
                              frozenset(self.zero_rows), digest)


def _parse_components(
    rests: list[str], line_nos: list[int], dim: int, use_loadtxt: bool
) -> np.ndarray:
    """The ``(len(rests), dim)`` rows spelled by the component strings ``rests``.

    loadtxt and float() both round correctly, so they agree on every literal
    loadtxt accepts.  Where loadtxt fails or drops a line (it rejects ``1_0``
    and non-ASCII digits, which float() accepts, and skips an empty line),
    the chunk is re-read with float(), which alone decides what is
    unparseable.
    """
    block = None
    if use_loadtxt:
        try:
            with warnings.catch_warnings():
                # a chunk of empty strings is "no data" to loadtxt
                warnings.simplefilter("ignore", UserWarning)
                block = np.loadtxt(
                    rests, delimiter=" ", comments=None, quotechar=None,
                    dtype=np.float64, ndmin=2,
                )
        except ValueError:
            pass
    if block is None or block.shape != (len(rests), dim):
        block = np.empty((len(rests), dim), dtype=np.float64)
        for i, rest in enumerate(rests):
            try:
                block[i] = [float(p) for p in rest.split(" ")]
            except ValueError:
                _check_finite(block[:i], line_nos)
                raise VecFormatError(
                    "unparseable vector component", line_no=line_nos[i]
                ) from None
    _check_finite(block, line_nos)
    return block


def _check_finite(block: np.ndarray, line_nos: list[int]) -> None:
    bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
    if bad.size:
        raise VecFormatError("non-finite vector component", line_no=line_nos[bad[0]])


# Below this norm the sum of squares np.linalg.norm takes is subnormal or 0
# and has lost precision: the direct formula scales the row (1e-160) to
# 1.0000056, not 1.
_MIN_DIRECT_NORM = np.sqrt(np.finfo(np.float64).tiny)


def _normalize_matrix(matrix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The matrix with unit rows, written to ``out`` if given; zero rows stay zero.

    A nonzero row whose squared norm is subnormal or overflows is divided by
    its largest absolute component first; every other row is divided by
    its norm as computed directly.  Each row is computed on its own, so
    normalizing a matrix in slices of rows gives the same bits.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
    unit = np.divide(matrix, np.where(norms == 0.0, 1.0, norms)[:, None], out=out)
    suspect = np.flatnonzero((norms < _MIN_DIRECT_NORM) | np.isinf(norms))
    rescale = suspect[matrix[suspect].any(axis=1)]
    if rescale.size:
        scaled = matrix[rescale] / np.abs(matrix[rescale]).max(axis=1)[:, None]
        unit[rescale] = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    return unit
