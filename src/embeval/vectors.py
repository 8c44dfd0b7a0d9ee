"""Loading, writing and querying word-embedding models in word-vector text format.

The format is the plain-text one used by common embedding trainers: a header
line ``<count> <dim>`` followed by one line per word holding the token and
``dim`` space-separated decimal numbers.  Models are immutable once loaded;
concurrent readers are safe.
"""

import hashlib
import io
import itertools
import logging
import os
import warnings
from dataclasses import dataclass, field
from typing import BinaryIO, Union

import numpy as np

from .errors import UnknownTokenError, VecFormatError

logger = logging.getLogger(__name__)

Source = Union[str, os.PathLike, bytes, BinaryIO]


@dataclass
class EmbeddingModel:
    """A vocabulary plus its dense vector matrix.

    ``matrix`` has one row per vocabulary token, in order.  ``zero_rows``
    flags tokens whose vector is all zeros (derived from the matrix at
    construction): they are legal in input files but cosine similarity is
    undefined for them, so neighbor queries skip them.  ``source_digest``
    is the SHA-256 of the bytes the model was loaded from and keys the
    on-disk neighbor cache.
    """

    name: str
    dim: int
    vocab: list[str]
    matrix: np.ndarray
    zero_rows: frozenset[int] = frozenset()
    source_digest: str | None = None
    index: dict[str, int] = field(init=False, repr=False)
    _unit_matrix: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        self.matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if self.matrix.shape != (len(self.vocab), self.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{len(self.vocab)} tokens of dim {self.dim}"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matrix contains non-finite components")
        self.index = {}
        for i, tok in enumerate(self.vocab):
            if not tok or tok.split() != [tok]:
                raise ValueError(f"token {tok!r} is empty or contains whitespace")
            if tok in self.index:
                raise ValueError(f"duplicate token {tok!r}")
            self.index[tok] = i
        if len(self.vocab):
            # zero rows are a property of the matrix; never trust the caller
            # to have flagged them all
            self.zero_rows = frozenset(self.zero_rows) | frozenset(
                int(i) for i in np.flatnonzero(~self.matrix.any(axis=1))
            )
        self.matrix.flags.writeable = False

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __len__(self) -> int:
        return len(self.vocab)

    def unit_matrix(self) -> np.ndarray:
        """Row-normalized matrix (zero rows stay zero), computed once and cached."""
        if self._unit_matrix is None:
            self._unit_matrix = _normalize_matrix(self.matrix)
            self._unit_matrix.flags.writeable = False
        return self._unit_matrix

    def content_digest(self) -> str:
        """Digest identifying the model content; falls back to the serialized form."""
        if self.source_digest is not None:
            return self.source_digest
        buf = io.BytesIO()
        save_vec(self, buf)
        return hashlib.sha256(buf.getvalue()).hexdigest()


def contains(model: EmbeddingModel, token: str) -> bool:
    """Exact, case-sensitive vocabulary membership."""
    return token in model.index


def vector(model: EmbeddingModel, token: str) -> np.ndarray:
    """The stored row for ``token``; raises UnknownTokenError if absent."""
    try:
        row = model.index[token]
    except KeyError:
        raise UnknownTokenError(f"token {token!r} not in model {model.name!r}") from None
    return model.matrix[row]


def _read_bytes(source: Source) -> bytes:
    if isinstance(source, bytes):
        return source
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return fh.read()
    return source.read()


# Kept body lines whose components one np.loadtxt call parses.  8192 was no
# faster and raised a two-model diversity run's peak RSS by about 10 MB.
_CHUNK = 1024
# ASCII separators that numpy strips around a number as whitespace but
# float() rejects; a file holding one is parsed by float() alone.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def load_vec(source: Source, name: str, keep_first: bool = False) -> EmbeddingModel:
    """Parse a word-vector text file into an EmbeddingModel.

    ``keep_first`` downgrades duplicate tokens from an error to a warning,
    keeping the first occurrence; the duplicate row is dropped so the header
    count is then allowed to exceed the stored row count.

    A component is accepted when ``float()`` accepts it and the result is
    finite.  The line structure is checked line by line; the numbers of up
    to ``_CHUNK`` kept lines are parsed by one ``np.loadtxt`` call, and the
    first failing line of the file names the error.
    """
    raw = _read_bytes(source)
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise VecFormatError(f"not valid UTF-8: {exc}") from None
    del raw
    if text.startswith("\ufeff"):
        raise VecFormatError("file starts with a BOM", line_no=1)
    use_loadtxt = not any(c in text for c in _LOADTXT_ONLY_SPACE)

    lines = text.split("\n")
    del text
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise VecFormatError("empty file", line_no=1)

    header = lines[0].split(" ")
    if len(header) != 2 or not header[0].isdecimal() or not header[1].isdecimal():
        raise VecFormatError(f"malformed header {lines[0]!r}", line_no=1)
    count, dim = int(header[0]), int(header[1])
    if dim <= 0:
        raise VecFormatError(f"dimension must be positive, got {dim}", line_no=1)

    if len(lines) - 1 != count:
        raise VecFormatError(
            f"header declares {count} rows but file has {len(lines) - 1}"
        )

    vocab: list[str] = []
    seen: set[str] = set()
    # allocated once the first chunk has parsed, so a header's dimension is
    # backed by a body line before it sizes an array
    rows: np.ndarray | None = None
    rests: list[str] = []
    line_nos: list[int] = []

    def flush() -> None:
        nonlocal rows
        if not rests:
            return
        block = _parse_components(rests, line_nos, dim, use_loadtxt)
        if rows is None:
            rows = np.empty((count, dim), dtype=np.float64)
        stored = len(vocab) - len(rests)
        rows[stored : len(vocab)] = block
        rests.clear()
        line_nos.clear()

    for line_no, line in enumerate(itertools.islice(lines, 1, None), start=2):
        token, _, rest = line.partition(" ")
        error = None
        if line.count(" ") != dim:
            error = f"expected token plus {dim} components, found {line.count(' ')}"
        elif not token:
            error = "empty token"
        elif token.split() != [token]:
            error = f"token {token!r} contains whitespace"
        elif token in seen:
            if not keep_first:
                error = f"duplicate token {token!r}"
            else:
                logger.warning(
                    "%s: duplicate token %r on line %d; keeping first occurrence",
                    name, token, line_no,
                )
                continue
        if error is not None:
            flush()  # an error on an earlier line of the chunk wins
            raise VecFormatError(error, line_no=line_no)
        seen.add(token)
        vocab.append(token)
        rests.append(rest)
        line_nos.append(line_no)
        if len(rests) == _CHUNK:
            flush()
    flush()
    del lines, seen

    if rows is None:
        try:
            rows = np.empty((0, dim), dtype=np.float64)
        except ValueError:
            raise VecFormatError(f"dimension {dim} is too large", line_no=1) from None
    model = EmbeddingModel(
        name=name,
        dim=dim,
        vocab=vocab,
        matrix=rows[: len(vocab)],
        source_digest=digest,
    )
    if model.zero_rows:
        logger.warning("%s: %d zero vector(s) in input", name, len(model.zero_rows))
    return model


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


def save_vec(model: EmbeddingModel, dest: Union[str, os.PathLike, BinaryIO]) -> None:
    """Write a model in word-vector text format.

    Numbers are rendered with 6 significant digits; writing a loaded model
    again reproduces the body lines byte for byte once the file has been
    through one write/load cycle.
    """
    own = isinstance(dest, (str, os.PathLike))
    fh: BinaryIO = open(dest, "wb") if own else dest
    try:
        fh.write(f"{len(model.vocab)} {model.dim}\n".encode("utf-8"))
        for i, token in enumerate(model.vocab):
            comps = " ".join("%.6g" % v for v in model.matrix[i])
            fh.write(f"{token} {comps}\n".encode("utf-8"))
    finally:
        if own:
            fh.close()


# Below this norm the sum of squares np.linalg.norm takes is subnormal or 0
# and has lost precision: the direct formula scales the row (1e-160) to
# 1.0000056, not 1.
_MIN_DIRECT_NORM = np.sqrt(np.finfo(np.float64).tiny)


def _normalize_matrix(matrix: np.ndarray) -> np.ndarray:
    """The matrix with unit rows; zero rows stay zero.

    A nonzero row whose squared norm is subnormal or overflows is divided by
    its largest absolute component first; every other row is divided by
    its norm as computed directly.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
    unit = matrix / np.where(norms == 0.0, 1.0, norms)[:, None]
    suspect = np.flatnonzero((norms < _MIN_DIRECT_NORM) | np.isinf(norms))
    rescale = suspect[matrix[suspect].any(axis=1)]
    if rescale.size:
        scaled = matrix[rescale] / np.abs(matrix[rescale]).max(axis=1)[:, None]
        unit[rescale] = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    return unit
