"""Loading and querying word-embedding models in word-vector text format.

The format is the plain-text one used by common embedding trainers: a header
line ``<count> <dim>`` followed by one line per word holding the token and
``dim`` space-separated decimal numbers.  ``load_vec`` is the only way a
model is built.  Models are immutable once loaded; concurrent readers are
safe.

``load_vec`` reads the file in groups of whole lines and parses each
group at once, by the two paths its docstring names.  Each group's rows
are scaled to unit length as they are stored, so loading holds the
model's unit rows and vocabulary plus about one group, never the file's
bytes, text or lines, nor its raw components.  ``load_vocab`` runs the
same reader and checks but drops each group's rows once their zero rows
are noted: it holds no matrix at all.
"""

import contextlib
import hashlib
import io
import itertools
import logging
import os
import warnings
from dataclasses import dataclass
from typing import BinaryIO, Union

import numpy as np

from .errors import VecFormatError

logger = logging.getLogger(__name__)

Source = Union[str, os.PathLike, bytes, BinaryIO]


class EmbeddingModel:
    """A vocabulary plus the unit rows of its vectors, one array per model.

    ``load_vec`` builds every model: it checks the file's tokens and
    components and scales each row to unit length a group at a time, and
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
# ``_Body._parsed`` tests them for a group's tokens at C speed;
# ``_token_error`` tests one token and words what is wrong with it.
def _token_error(token: str, seen: set[str]) -> str | None:
    """What is wrong with ``token`` after the tokens ``seen``, or None."""
    if not token:
        return "empty token"
    if token.split() != [token]:
        return f"token {token!r} contains whitespace"
    if token in seen:
        return f"duplicate token {token!r}"
    return None


# The size hint, in bytes, of a group of whole lines read, hashed, decoded
# and parsed at once: a group ends with the line that brings it to the
# hint or past it.  The loader holds one group's text, lines and rows next
# to the vocabulary and the unit rows.  With 1 MiB a diversity run kept
# about 3 MB more heap.
_BLOCK = 1 << 18
# ASCII separators that numpy strips around a number as whitespace but
# float() rejects; the lines of a group holding one are parsed by float()
# alone.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def load_vec(source: Source, name: str) -> EmbeddingModel:
    """Parse a word-vector text file into an EmbeddingModel.

    The file is read, hashed and decoded in groups of whole lines of about
    ``_BLOCK`` bytes (256 KiB), so it is never held whole: memory peaks at
    the unit rows and the vocabulary plus about one group.  A component is
    accepted when ``float()`` accepts it and the result is finite.  A group
    that passes C-level checks of its structure and one ``np.loadtxt``
    call, with finite numbers, is taken whole; any other group is read
    line by line with ``float()``, and its first failing line names the
    error.  Each parsed group is normalized into the model's rows, bit for
    bit as normalizing the whole raw matrix would, and the model keeps no
    raw row.

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
    each group's rows are dropped once their zero rows are counted: memory
    holds the vocabulary, the set of its tokens that finds duplicates and
    about one group, never the matrix.  So ``load_vocab`` raises what
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
    position, rows = 0, -1  # bytes read and body lines read; a last line needs no newline
    with _open(source) as fh:
        # a newline byte is never part of a multi-byte character, so each
        # group of whole lines decodes on its own
        for group in iter(lambda: b"".join(fh.readlines(_BLOCK)), b""):
            digest.update(group)
            text = _decode(group, position)
            position += len(group)
            del group
            lines = text.split("\n")
            if not lines[-1]:  # the group ends in a newline
                lines.pop()
            rows += len(lines)
            use_loadtxt = _loadtxt_safe(text)
            del text
            if error is None:
                try:
                    if body is None:
                        body = _Body(name, *_header(lines[0]), keep_rows)
                        del lines[0]
                    if lines:  # the first group may hold only the header
                        body.feed(lines, use_loadtxt)
                except VecFormatError as exc:
                    error = exc
            del lines
    if body is None:
        raise error or VecFormatError("empty file", line_no=1)
    if rows != body.count:
        raise VecFormatError(f"header declares {body.count} rows but file has {rows}")
    if error is not None:
        raise error
    if body.zero_rows:
        logger.warning("%s: %d zero vector(s) in input", name, len(body.zero_rows))
    return body, digest.hexdigest()


def _open(source: Source):
    """``source`` as a binary file to read in a ``with``; a caller's file stays open."""
    if isinstance(source, bytes):
        return io.BytesIO(source)
    if isinstance(source, (str, os.PathLike)):
        return open(source, "rb")
    return contextlib.nullcontext(source)


def _decode(data: bytes, position: int) -> str:
    """``data``, read from byte ``position`` of the file, as text.

    Invalid UTF-8 is a VecFormatError worded as ``bytes.decode`` of the
    whole file words it, with the byte position in the file.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start, end = position + exc.start, position + exc.end
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
    file's body lines, fed a group of lines at a time."""

    def __init__(self, name: str, count: int, dim: int, keep_rows: bool):
        self.name = name
        self.count = count
        self.dim = dim
        self.keep_rows = keep_rows
        self.vocab: list[str] = []
        self.seen: set[str] = set()
        self.zero_rows: list[int] = []
        # allocated once the first group has parsed, so a header's
        # dimension is backed by a body line before it sizes an array
        self.rows: np.ndarray | None = None

    def feed(self, lines: list[str], use_loadtxt: bool) -> None:
        """Parse a group of body lines; raises VecFormatError at the first failing one."""
        if len(self.vocab) + len(lines) > self.count:
            # stops parsing; load_vec reports the row count at EOF
            raise VecFormatError(f"header declares {self.count} rows but file has more")
        block = self._parsed(lines) if use_loadtxt else None
        self._store(self._parsed_lines(lines) if block is None else block)

    def _parsed(self, lines: list[str]) -> np.ndarray | None:
        """The group's rows, its tokens taken, if the whole group passes; else None.

        C-level calls check that every line holds ``dim`` spaces, that the
        tokens survive a join and whitespace split (none is empty or holds
        whitespace) and that none repeats; one ``np.loadtxt`` call must then
        read ``dim`` finite components per line.  loadtxt and float() both
        round correctly, so they agree on every literal loadtxt accepts;
        where loadtxt fails or drops a line (it rejects ``1_0`` and
        non-ASCII digits, which float() accepts, and skips an empty line),
        the group is read line by line.
        """
        if set(map(str.count, lines, itertools.repeat(" "))) != {self.dim}:
            return None
        tokens, _, rests = zip(*map(str.partition, lines, itertools.repeat(" ")))
        distinct = set(tokens)
        if (len(distinct) != len(tokens) or not self.seen.isdisjoint(distinct)
                or " ".join(tokens).split() != list(tokens)):
            return None
        try:
            with warnings.catch_warnings():
                # a group of empty strings is "no data" to loadtxt
                warnings.simplefilter("ignore", UserWarning)
                block = np.loadtxt(
                    rests, delimiter=" ", comments=None, quotechar=None,
                    dtype=np.float64, ndmin=2,
                )
        except ValueError:
            return None
        if block.shape != (len(lines), self.dim) or not np.isfinite(block).all():
            return None
        self.seen |= distinct
        self.vocab += tokens
        return block

    def _parsed_lines(self, lines: list[str]) -> np.ndarray:
        """The group's rows, each line checked in file order and its
        components read by float(); raises at the first failing line.

        The rows become an array only once every line has passed, so a
        header's dimension sizes no array before a body line backs it.
        """
        rows = []
        for line_no, line in enumerate(lines, start=len(self.vocab) + 2):  # after the header
            token, _, rest = line.partition(" ")
            spaces = line.count(" ")
            if spaces != self.dim:
                error = f"expected token plus {self.dim} components, found {spaces}"
            else:
                error = _token_error(token, self.seen)
            if error is None:
                try:
                    rows.append([float(p) for p in rest.split(" ")])
                except ValueError:
                    error = "unparseable vector component"
                if error is None and not np.isfinite(rows[-1]).all():
                    error = "non-finite vector component"
            if error is not None:
                raise VecFormatError(error, line_no=line_no)
            self.seen.add(token)
            self.vocab.append(token)
        return np.array(rows, dtype=np.float64)

    def _store(self, block: np.ndarray) -> None:
        """Note the zero rows of ``block``, the raw rows of the last
        ``len(block)`` tokens, and, if rows are kept, store them as unit rows."""
        start = len(self.vocab) - len(block)
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
        _normalize_matrix(block, out=self.rows[start : start + len(block)])

    def model(self, digest: str) -> EmbeddingModel:
        self.seen.clear()
        if self.rows is None:
            try:
                self.rows = np.empty((0, self.dim), dtype=np.float64)
            except ValueError:
                raise VecFormatError(f"dimension {self.dim} is too large", line_no=1) from None
        return EmbeddingModel(self.name, self.dim, self.vocab, self.rows, frozenset(self.zero_rows), digest)


# Below this norm the sum of squares np.linalg.norm takes is subnormal or 0
# and has lost precision: the direct formula scales the row (1e-160) to
# 1.0000056, not 1.
_MIN_DIRECT_NORM = np.sqrt(np.finfo(np.float64).tiny)
# Unit components below this magnitude become zeros, so a nonzero product of
# two is at least 2**-968 and exact scoring cannot underflow.  A float32 row
# has none: its least nonzero unit component is at least 2**-277 / sqrt(dim).
_FLUSH = 2.0 ** -484


def _normalize_matrix(matrix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The matrix with unit rows, written to ``out`` if given; zero rows stay zero.

    A nonzero row whose squared norm is subnormal or overflows is divided by
    its largest absolute component first; every other row is divided by
    its norm as computed directly; then each unit component below ``_FLUSH``
    in magnitude becomes a zero of its sign.  Each row is computed on its
    own, so normalizing a matrix in slices of rows gives the same bits.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
    unit = np.divide(matrix, np.where(norms == 0.0, 1.0, norms)[:, None], out=out)
    suspect = np.flatnonzero((norms < _MIN_DIRECT_NORM) | np.isinf(norms))
    rescale = suspect[matrix[suspect].any(axis=1)]
    if rescale.size:
        scaled = matrix[rescale] / np.abs(matrix[rescale]).max(axis=1)[:, None]
        unit[rescale] = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    np.copysign(0.0, unit, out=unit, where=np.abs(unit) < _FLUSH)
    return unit
