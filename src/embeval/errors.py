"""Exception hierarchy shared across the toolkit.

``InputParseError`` covers everything that went wrong while reading user
supplied files (vec files, thesauri, caches, configs); the CLI maps it to
its own exit code, distinct from argument errors and internal failures.
``parse_file`` names the file in such an error.
"""


class EmbevalError(Exception):
    """Base class for all toolkit errors."""


class InputParseError(EmbevalError):
    """A user-supplied input file could not be parsed; ``line_no``, when
    known, is the failing line and prefixes the message."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class VecFormatError(InputParseError):
    """Malformed word-vector text file."""


class ThesaurusFormatError(InputParseError):
    """Malformed N-Triples or TSV thesaurus file."""


class CacheFormatError(InputParseError):
    """Malformed neighbor cache file; the message says that deleting it rebuilds it."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(f"{message}; delete the file to rebuild it", line_no)


class UnknownTokenError(EmbevalError):
    """A token was queried that is not in the model vocabulary."""


class ZeroVectorError(EmbevalError):
    """Cosine similarity was requested for an all-zero vector."""


class UsageError(EmbevalError):
    """Invalid command-line arguments detected before any heavy work."""


class WorkerError(EmbevalError):
    """A worker process failed to clean a document."""


def parse_file(read, path, *args):
    """``read(path, *args)``; a parse error names the file, as ``<path>: line N: ...``."""
    try:
        return read(path, *args)
    except InputParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
