"""String-distance and set-similarity measures for coauthor matching.

The edit-distance kernel exists twice: a compiled extension for the hot
pairwise loops and a pure-Python fallback.  The fastest available one is
selected at import time; ``USING_COMPILED`` records which is active.
"""

from dataclasses import dataclass
from typing import Iterable

from ._pylev import levenshtein as levenshtein_py

try:
    from ._speedups import levenshtein as _levenshtein
    USING_COMPILED = True
except ImportError:
    _levenshtein = levenshtein_py
    USING_COMPILED = False

levenshtein = _levenshtein

__all__ = [
    "MatchConfig",
    "USING_COMPILED",
    "jaccard",
    "jaccard_lev",
    "levenshtein",
    "levenshtein_py",
    "names_match",
]


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
            d = levenshtein(x, y)
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
