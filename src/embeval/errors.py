"""Exception hierarchy shared across the toolkit.

``InputParseError`` covers everything that went wrong while reading user
supplied files (vec files, thesauri, caches, configs); the CLI maps it to
its own exit code, distinct from argument errors and internal failures.
"""


class EmbevalError(Exception):
    """Base class for all toolkit errors."""


class InputParseError(EmbevalError):
    """A user-supplied input file could not be parsed."""


class VecFormatError(InputParseError):
    """Malformed word-vector text file."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ThesaurusFormatError(InputParseError):
    """Malformed N-Triples or TSV thesaurus file."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class CacheFormatError(InputParseError):
    """Malformed neighbor cache file."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class StaleCacheError(InputParseError):
    """Neighbor cache does not match the model/parameters it is asked for."""


class UnknownTokenError(EmbevalError):
    """A token was queried that is not in the model vocabulary."""


class ZeroVectorError(EmbevalError):
    """Cosine similarity was requested for an all-zero vector."""


class UsageError(EmbevalError):
    """Invalid command-line arguments detected before any heavy work."""


class WorkerError(EmbevalError):
    """A worker process failed to clean a document."""
