"""String-distance and set-similarity measures for coauthor matching."""

from dataclasses import dataclass
from typing import Iterable

# There is no compiled kernel.  perfbench/stages.py still reads this flag
# in traced runs, so it goes only in a later change to the benchmark.
USING_COMPILED = False

__all__ = [
    "MatchConfig",
    "jaccard",
    "jaccard_lev",
    "levenshtein",
    "names_match",
]


def levenshtein(s: str, t: str, limit: int | None = None) -> int:
    """Unit-cost edit distance (replacement, insertion, deletion).

    With ``limit`` the result is the distance when that is below ``limit``
    and ``limit`` otherwise; without it the result is exact.  Strings
    whose lengths differ by ``limit`` or more need no table, and neither
    does a ``limit`` of 2, the default coauthor budget: two strings one
    edit apart agree again just past their first mismatch.  Every other
    call fills the whole table, two rows at a time.  Only budgets of 3 or
    more reach it, and no workload times them; a band (Ukkonen 1985) is
    worth its code again once one does.
    """
    if s == t:
        return 0
    m = len(t)
    if limit is None:
        limit = len(s) + m + 1
    elif abs(len(s) - m) >= limit:
        return limit
    if limit == 2:
        # One edit at most: past the first mismatch the rest must agree,
        # with one character skipped in the longer string, or in both.
        if len(s) > m:
            s, t = t, s
        i = 0
        for cs, ct in zip(s, t):
            if cs != ct:
                break
            i += 1
        return 1 if s[i + (len(s) == len(t)) :] == t[i + 1 :] else 2
    # Two rows, swapped after each one.
    prev = list(range(m + 1))
    curr = [0] * (m + 1)
    for i, cs in enumerate(s, start=1):
        curr[0] = left = i
        for j, ct in enumerate(t, start=1):
            d = prev[j - 1] + (cs != ct)
            up = prev[j] + 1
            if up < d:
                d = up
            if left + 1 < d:
                d = left + 1
            curr[j] = left = d
        prev, curr = curr, prev
    return prev[m] if prev[m] < limit else limit


@dataclass(frozen=True)
class MatchConfig:
    """Thresholds for fuzzy name comparison.

    ``lev_threshold`` is the per-token edit budget: two tokens count as
    intersected when their edit distance is strictly below it.
    ``match_threshold`` is the minimum set-similarity ratio for a match.
    """

    lev_threshold: int = 2
    match_threshold: float = 0.75

    def __post_init__(self) -> None:
        if self.lev_threshold < 0:
            raise ValueError("lev_threshold must be non-negative")
        if not 0.0 <= self.match_threshold <= 1.0:
            raise ValueError("match_threshold must be within [0, 1]")


def jaccard(s: Iterable[str], t: Iterable[str]) -> float:
    """|S∩T| / |S∪T|; defined as 1.0 when both sets are empty."""
    s, t = set(s), set(t)
    union = s | t
    if not union:
        return 1.0
    return len(s & t) / len(union)


def jaccard_lev(s: Iterable[str], t: Iterable[str], cfg: MatchConfig) -> float:
    """Jaccard ratio with fuzzy intersection.

    Tokens pair up greedily in ascending edit-distance order, one-to-one,
    when their distance is below ``cfg.lev_threshold``.  With m matched
    pairs the ratio is m / (|S| + |T| - m).  A threshold of 1 admits only
    exact matches and reproduces plain ``jaccard``.
    """
    s, t = set(s), set(t)
    if not s and not t:
        return 1.0
    pairs = []
    for x in s:
        for y in t:
            d = levenshtein(x, y, cfg.lev_threshold)
            if d < cfg.lev_threshold:
                # Orientation-free sort key keeps the pairing symmetric.
                pairs.append((d, min(x, y), max(x, y), x, y))
    pairs.sort()
    used_s: set[str] = set()
    used_t: set[str] = set()
    matched = 0
    for _, _, _, x, y in pairs:
        if x in used_s or y in used_t:
            continue
        used_s.add(x)
        used_t.add(y)
        matched += 1
    return matched / (len(s) + len(t) - matched)


def names_match(a: str, b: str, cfg: MatchConfig) -> bool:
    """True when two whitespace-tokenized full names are similar enough.

    Tokens are casefolded first, then compared with ``jaccard_lev`` against
    ``cfg.match_threshold``.
    """
    tokens_a = set(a.casefold().split())
    tokens_b = set(b.casefold().split())
    return jaccard_lev(tokens_a, tokens_b, cfg) >= cfg.match_threshold
