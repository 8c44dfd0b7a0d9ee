"""Edit-distance ratio similarity with pruning for vocabulary-scale scans.

The distance used here charges 1 for an insertion or deletion and 2 for a
substitution.  With those costs the normalized similarity

    ratio(a, b) = (|a| + |b| - dist(a, b)) / (|a| + |b|)

lies in [0, 1] and equals 1 exactly for equal strings.  A substitution
costs as much as a deletion plus an insertion, so the distance is
|a| + |b| - 2 * LCS(a, b), where LCS is the length of a longest common
subsequence.  ``best_match`` scans a vocabulary for the most similar token
above a threshold: a length index skips the buckets that cannot reach it,
and the bit-parallel LCS of Allison & Dix (1986) and Hyyrö (2004) scores a
whole length bucket at once, one 64-bit lane per candidate.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Longest token the numpy kernel takes: its bit vector and the carry out of
# its top bit must fit in one uint64 lane.
_LANE_BITS = 63


@dataclass(frozen=True)
class RatioMatch:
    """The vocabulary token that best matched a keyword token, and its ratio."""

    matched_vocab_token: str
    ratio: float


def edit_distance_sub2(a: str, b: str) -> int:
    """Edit distance with unit insert/delete cost and substitution cost 2.

    Operates on Unicode code points. Symmetric; 0 iff the strings are equal.
    """
    if len(b) > len(a):
        a, b = b, a
    return len(a) + len(b) - 2 * _lcs(_position_masks(b), len(b), a)


def _position_masks(token: str) -> dict[str, int]:
    """Each character of token mapped to the bitmask of its positions."""
    masks: dict[str, int] = {}
    for pos, ch in enumerate(token):
        masks[ch] = masks.get(ch, 0) | (1 << pos)
    return masks


def _lcs(masks: dict[str, int], m: int, other: str) -> int:
    """LCS length of other with the m-character token whose ``_position_masks`` are given.

    After each character of other, the number of zero bits among the lowest
    m bits of the state V is the LCS of the token with the prefix of other
    read so far.  Per character with position mask P in the token,
    U = V & P and V = (V + U) | (V - U), cut to m bits.
    """
    full = (1 << m) - 1
    v = full
    for ch in other:
        u = v & masks.get(ch, 0)
        v = ((v + u) | (v - u)) & full
    return m - v.bit_count()


def ratio(a: str, b: str) -> float:
    """Normalized similarity in [0, 1]; 1.0 iff equal (two empties count as equal)."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return (total - edit_distance_sub2(a, b)) / total


class VocabIndex:
    """Immutable token collection with hash and length lookups for best_match.

    Each scanned length bucket also keeps its code points as columns, built
    the first time best_match scans it (see ``columns``).
    """

    def __init__(self, tokens: Sequence[str]):
        self.tokens = list(tokens)
        self.position: dict[str, int] = {}
        self.by_length: dict[int, list[int]] = {}
        self._columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for i, tok in enumerate(self.tokens):
            if tok not in self.position:
                self.position[tok] = i
                self.by_length.setdefault(len(tok), []).append(i)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.position

    def columns(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """The length bucket as ``(alphabet, codes)``, built on first use.

        ``alphabet`` holds the bucket's distinct code points in ascending
        order.  ``codes[j, c]`` is the index into it of the j-th code point
        of the bucket's c-th token, with columns in ``by_length`` order.
        Every token of the bucket has exactly ``length`` code points, so the
        fixed-width array is exact for any code point, NUL included.
        """
        cols = self._columns.get(length)
        if cols is None:
            bucket = self.by_length[length]
            points = np.array([self.tokens[i] for i in bucket], dtype=f"<U{length}").view(np.uint32)
            alphabet, inverse = np.unique(points, return_inverse=True)
            # the narrowest unsigned type that indexes the alphabet, since
            # the columns of every scanned bucket stay in memory
            inverse = inverse.astype(np.min_scalar_type(len(alphabet) - 1))
            codes = np.ascontiguousarray(inverse.reshape(len(bucket), length).T)
            cols = self._columns[length] = (alphabet, codes)
        return cols


def _bucket_lcs(token: str, vocab: VocabIndex, length: int) -> np.ndarray:
    """LCS length of token with each token of a length bucket, in ``by_length`` order.

    After each candidate character, the number of zero bits among the lowest
    i + 1 bits of the state V is the LCS of token[:i + 1] with the candidate's
    prefix read so far.  Per character with position mask P in token,
    U = V & P and V = (V + U) | (V - U), cut to the token's m bits; the LCS
    is the number of zero bits at the end.  A token of up to 63 code points
    keeps one uint64 lane per candidate (V + U < 2^64 since V < 2^63), and
    the bucket advances one character column at a time; a longer token runs
    the same recurrence on Python ints, one candidate at a time.
    """
    m = len(token)
    masks = _position_masks(token)
    if m > _LANE_BITS:
        return np.array([_lcs(masks, m, vocab.tokens[idx]) for idx in vocab.by_length[length]], dtype=np.int64)

    alphabet, codes = vocab.columns(length)
    # Peq[k]: position mask of alphabet[k] in token, 0 for characters it lacks.
    peq = np.zeros(len(alphabet), dtype=np.uint64)
    points = np.array([ord(ch) for ch in masks], dtype=np.uint32)
    where = np.minimum(np.searchsorted(alphabet, points), len(alphabet) - 1)
    found = alphabet[where] == points
    peq[where[found]] = np.array(list(masks.values()), dtype=np.uint64)[found]

    full = np.uint64((1 << m) - 1)
    v = np.full(codes.shape[1], full, dtype=np.uint64)
    u = np.empty_like(v)
    t = np.empty_like(v)
    for col in codes:
        np.take(peq, col, out=t)
        np.bitwise_and(v, t, out=u)
        np.add(v, u, out=t)
        np.subtract(v, u, out=v)
        np.bitwise_or(v, t, out=v)
        np.bitwise_and(v, full, out=v)
    return m - np.bitwise_count(v).astype(np.int64)


def _max_distance_for(s: float, total_len: int) -> int:
    """Largest integer d with (total_len - d) / total_len >= s under float compare."""
    d = int(total_len * (1.0 - s)) + 2
    while d > 0 and (total_len - d) / total_len < s:
        d -= 1
    return d


def best_match(token: str, vocab: VocabIndex, s: float) -> Optional[RatioMatch]:
    """Most similar vocabulary token with ratio >= s, or None.

    Ties on the ratio go to the lowest vocabulary index.  s=1 degrades to an
    exact hash lookup; for s<1 only length buckets that can get within the
    threshold distance are scanned, each with one bit-parallel LCS pass
    over all of its candidates.
    The match does not depend on s beyond its ratio reaching s: for any
    s' >= s, ``best_match(token, vocab, s')`` is this match if its ratio is
    >= s', and None otherwise.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"threshold s must be in (0, 1], got {s}")
    pos = vocab.position.get(token)
    if pos is not None:
        return RatioMatch(token, 1.0)
    if s == 1.0:
        return None

    lt = len(token)
    best: RatioMatch | None = None
    best_idx = -1
    for length, bucket in vocab.by_length.items():
        total = lt + length
        limit = _max_distance_for(s, total)
        # Every candidate differs from token (an exact hit returned above), so
        # its distance is at least the length difference, and at least 2 (one
        # substitution) at equal length: skip a bucket that cannot get within
        # the limit.
        if (abs(length - lt) or 2) > limit:
            continue
        # Within a bucket the smallest distance is the largest LCS, and
        # argmax takes its first, lowest-index candidate.
        lcs = _bucket_lcs(token, vocab, length)
        j = int(lcs.argmax())
        d = total - 2 * int(lcs[j])
        if d > limit:
            continue
        idx = bucket[j]
        r = (total - d) / total
        if best is None or r > best.ratio or (r == best.ratio and idx < best_idx):
            best = RatioMatch(vocab.tokens[idx], r)
            best_idx = idx
    return best

