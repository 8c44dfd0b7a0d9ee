"""Edit-distance ratio similarity with pruning for vocabulary-scale scans.

The distance used here charges 1 for an insertion or deletion and 2 for a
substitution.  With those costs the normalized similarity

    ratio(a, b) = (|a| + |b| - dist(a, b)) / (|a| + |b|)

lies in [0, 1] and equals 1 exactly for equal strings.  ``best_match``
scans a vocabulary for the most similar token above a threshold; a length
index plus a banded DP with an early cutoff keep that tractable when the
vocabulary has millions of entries.
"""

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class RatioMatch:
    """One vocabulary token that matched a keyword token."""

    keyword_token: str
    matched_vocab_token: str
    ratio: float


def edit_distance_sub2(a: str, b: str) -> int:
    """Edit distance with unit insert/delete cost and substitution cost 2.

    Operates on Unicode code points. Symmetric; 0 iff the strings are equal.
    """
    # Common prefixes/suffixes never change the optimal alignment cost.
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a = a[lo:hi_a]
    b = b[lo:hi_b]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(b) > len(a):
        a, b = b, a

    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        append = cur.append
        for j, cb in enumerate(b, start=1):
            if ca == cb:
                best = prev[j - 1]
            else:
                best = prev[j - 1] + 2
            up = prev[j] + 1
            if up < best:
                best = up
            left = cur[j - 1] + 1
            if left < best:
                best = left
            append(best)
        prev = cur
    return prev[-1]


def _edit_distance_sub2_bounded(a: str, b: str, limit: int) -> Optional[int]:
    """Like edit_distance_sub2 but gives up once the distance exceeds ``limit``.

    Returns None when the distance is > limit.  Any alignment path visiting a
    cell with |i - j| > limit already costs more than limit, so the DP only
    fills a band of that half-width.
    """
    if limit < 0:
        return None
    la, lb = len(a), len(b)
    if abs(la - lb) > limit:
        return None
    lo = 0
    while lo < la and lo < lb and a[lo] == b[lo]:
        lo += 1
    while la > lo and lb > lo and a[la - 1] == b[lb - 1]:
        la -= 1
        lb -= 1
    a = a[lo:la]
    b = b[lo:lb]
    la, lb = len(a), len(b)
    if la == 0:
        return lb if lb <= limit else None
    if lb == 0:
        return la if la <= limit else None

    inf = limit + 1
    prev = [j if j <= limit else inf for j in range(lb + 1)]
    for i in range(1, la + 1):
        j_lo = max(1, i - limit)
        j_hi = min(lb, i + limit)
        cur = [inf] * (lb + 1)
        if j_lo == 1:
            cur[0] = i if i <= limit else inf
        ca = a[i - 1]
        row_min = inf
        for j in range(j_lo, j_hi + 1):
            if ca == b[j - 1]:
                best = prev[j - 1]
            else:
                best = prev[j - 1] + 2
            up = prev[j] + 1
            if up < best:
                best = up
            left = cur[j - 1] + 1
            if left < best:
                best = left
            cur[j] = best
            if best < row_min:
                row_min = best
        if row_min > limit:
            return None
        prev = cur
    return prev[lb] if prev[lb] <= limit else None


def ratio(a: str, b: str) -> float:
    """Normalized similarity in [0, 1]; 1.0 iff equal (two empties count as equal)."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return (total - edit_distance_sub2(a, b)) / total


class VocabIndex:
    """Immutable token collection with hash and length lookups for best_match."""

    def __init__(self, tokens: Sequence[str]):
        self.tokens = list(tokens)
        self.position: dict[str, int] = {}
        self.by_length: dict[int, list[int]] = {}
        for i, tok in enumerate(self.tokens):
            if tok not in self.position:
                self.position[tok] = i
                self.by_length.setdefault(len(tok), []).append(i)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.position


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
    threshold distance are scanned, and each candidate runs a banded DP
    that aborts once that distance is exceeded.
    The match does not depend on s beyond its ratio reaching s: for any
    s' >= s, ``best_match(token, vocab, s')`` is this match if its ratio is
    >= s', and None otherwise.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"threshold s must be in (0, 1], got {s}")
    pos = vocab.position.get(token)
    if pos is not None:
        return RatioMatch(token, token, 1.0)
    if s == 1.0:
        return None

    lt = len(token)
    # ratio >= s forces |len(a)-len(b)| <= (1-s)(len(a)+len(b)); the resulting
    # candidate length window is widened by one on each side so float rounding
    # can only add candidates (the DP cutoff rejects them exactly).
    lo = max(1, int(lt * s / (2.0 - s)) - 1)
    hi = int(lt * (2.0 - s) / s) + 2

    best: RatioMatch | None = None
    best_idx = -1
    for length in range(lo, hi + 1):
        bucket = vocab.by_length.get(length)
        if not bucket:
            continue
        total = lt + length
        limit = _max_distance_for(s, total)
        # Every candidate differs from token (an exact hit returned above), so
        # its distance is at least the length difference, and at least 2 (one
        # substitution) at equal length: skip a bucket that cannot get within
        # the limit, such as the padded window's edges.
        if (abs(length - lt) or 2) > limit:
            continue
        for idx in bucket:
            cand = vocab.tokens[idx]
            d = _edit_distance_sub2_bounded(token, cand, limit)
            if d is None:
                continue
            r = (total - d) / total
            if best is None or r > best.ratio or (r == best.ratio and idx < best_idx):
                best = RatioMatch(token, cand, r)
                best_idx = idx
    return best


def scan_match(token: str, vocab: VocabIndex, s: float) -> Optional[RatioMatch]:
    """Unpruned reference scan over the whole vocabulary; same contract as best_match."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"threshold s must be in (0, 1], got {s}")
    best: RatioMatch | None = None
    for idx, cand in enumerate(vocab.tokens):
        r = ratio(token, cand)
        if r < s:
            continue
        if best is None or r > best.ratio:
            best = RatioMatch(token, cand, r)
    return best
