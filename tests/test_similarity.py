"""Distance and similarity measures, checked against independent oracles."""

import itertools
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpbib.similarity import (
    MatchConfig,
    jaccard,
    jaccard_lev,
    levenshtein,
    names_match,
)


def edit_distance_oracle(s: str, t: str) -> int:
    """Brute force: smallest k such that s maps to t within k edits."""

    def reachable(s: str, t: str, k: int) -> bool:
        if s == t:
            return True
        if k == 0:
            return False
        if s and t and s[0] == t[0]:
            return reachable(s[1:], t[1:], k)
        return (
            reachable(s[1:], t[1:], k - 1)  # replacement
            or reachable(s, t[1:], k - 1)  # insertion
            or reachable(s[1:], t, k - 1)  # deletion
        )

    for k in range(max(len(s), len(t)) + 1):
        if reachable(s, t, k):
            return k
    raise AssertionError("unreachable")


def test_levenshtein_identical():
    assert levenshtein("abc", "abc") == 0


def test_levenshtein_from_empty():
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3
    assert levenshtein("", "") == 0


def test_levenshtein_kitten_sitting_matches_oracle():
    assert edit_distance_oracle("kitten", "sitting") == 3
    assert levenshtein("kitten", "sitting") == 3


def test_levenshtein_against_oracle_on_short_strings():
    def words(alphabet):
        return [
            "".join(letters)
            for size in range(5)
            for letters in itertools.product(alphabet, repeat=size)
        ]

    for s in words("ab"):
        for t in words("abc"):
            exact = edit_distance_oracle(s, t)
            assert levenshtein(s, t) == exact
            for limit in range(6):
                assert levenshtein(s, t, limit) == min(exact, limit), (s, t, limit)


def test_levenshtein_metric_properties():
    rng = random.Random(11)
    alphabet = string.ascii_lowercase[:6]

    def word():
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(8)))

    for _ in range(10_000):
        s, t, u = word(), word(), word()
        d_st = levenshtein(s, t)
        assert d_st == levenshtein(t, s)
        assert (d_st == 0) == (s == t)
        assert abs(len(s) - len(t)) <= d_st <= max(len(s), len(t))
        assert d_st <= levenshtein(s, u) + levenshtein(u, t)


def test_jaccard_basics():
    assert jaccard({"a", "b"}, {"a", "b"}) == 1.0
    assert jaccard({"a"}, {"b"}) == 0.0
    assert jaccard(set(), set()) == 1.0
    # {a,b,c} vs {b,c,d}: 2 common of 4 total.
    assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == 0.5


def test_jaccard_range_and_symmetry():
    rng = random.Random(7)
    universe = list(string.ascii_lowercase)
    for _ in range(500):
        s = set(rng.sample(universe, rng.randrange(6)))
        t = set(rng.sample(universe, rng.randrange(6)))
        value = jaccard(s, t)
        assert 0.0 <= value <= 1.0
        assert value == jaccard(t, s)
        assert (value == 1.0) == (s == t)


def test_jaccard_lev_tolerates_one_edit():
    cfg = MatchConfig(lev_threshold=2, match_threshold=0.75)
    assert jaccard_lev({"Atsuyuki", "Morishima"}, {"Atsuyuki", "Morishma"}, cfg) == 1.0


def test_jaccard_lev_exact_threshold_and_disjoint():
    cfg1 = MatchConfig(lev_threshold=1)
    assert jaccard_lev({"x", "y"}, {"x", "y"}, cfg1) == 1.0
    cfg2 = MatchConfig(lev_threshold=2)
    assert jaccard_lev({"abc"}, {"xyz"}, cfg2) == 0.0


def test_jaccard_lev_with_threshold_one_equals_jaccard():
    rng = random.Random(99)
    cfg = MatchConfig(lev_threshold=1)
    words = ["mori", "Mori", "ito", "itou", "oota", "ota", "kanbe", "kambe"]
    for _ in range(1_000):
        s = set(rng.sample(words, rng.randrange(len(words))))
        t = set(rng.sample(words, rng.randrange(len(words))))
        assert jaccard_lev(s, t, cfg) == jaccard(s, t)


def test_jaccard_lev_symmetric_and_bounded():
    rng = random.Random(3)
    cfg = MatchConfig(lev_threshold=2)
    words = ["abc", "abd", "xyz", "xy", "a", ""]
    for _ in range(300):
        s = set(rng.sample(words, rng.randrange(len(words))))
        t = set(rng.sample(words, rng.randrange(len(words))))
        value = jaccard_lev(s, t, cfg)
        assert 0.0 <= value <= 1.0
        assert value == jaccard_lev(t, s, cfg)


def test_names_match_cases():
    cfg = MatchConfig(lev_threshold=2, match_threshold=1.0)
    assert names_match("Atsuyuki Morishima", "Atsuyuki Morishma", cfg)
    assert names_match("Same Name", "Same Name", MatchConfig(match_threshold=1.0))
    loose = MatchConfig(lev_threshold=2, match_threshold=0.5)
    assert not names_match("Kenji Taguchi", "Kiyoshi Itoh", loose)


def test_names_match_is_case_insensitive():
    cfg = MatchConfig(lev_threshold=1, match_threshold=1.0)
    assert names_match("SHINSUKE MORI", "Shinsuke Mori", cfg)


def test_match_config_validation():
    with pytest.raises(ValueError):
        MatchConfig(match_threshold=1.5)
    with pytest.raises(ValueError):
        MatchConfig(lev_threshold=-1)


# -- properties against the oracles ------------------------------------------

# Short names over a small alphabet, so that near misses are common and the
# recursive oracle stays fast.
token = st.text(alphabet="aiknost", max_size=6)
name = st.lists(token.filter(bool), max_size=3).map(" ".join)
thresholds = st.builds(
    MatchConfig,
    lev_threshold=st.integers(0, 4),
    match_threshold=st.floats(0.0, 1.0),
)


def jaccard_lev_oracle(s, t, cfg: MatchConfig) -> float:
    """``jaccard_lev`` with every distance taken from the oracle."""
    s, t = set(s), set(t)
    if not s and not t:
        return 1.0
    pairs = sorted(
        (d, min(x, y), max(x, y), x, y)
        for x in s
        for y in t
        if (d := edit_distance_oracle(x, y)) < cfg.lev_threshold
    )
    used_s: set[str] = set()
    used_t: set[str] = set()
    for _, _, _, x, y in pairs:
        if x not in used_s and y not in used_t:
            used_s.add(x)
            used_t.add(y)
    return len(used_s) / (len(s) + len(t) - len(used_s))


@settings(max_examples=300, deadline=None)
@given(token, token, st.integers(0, 4))
def test_bounded_levenshtein_against_oracle(s, t, limit):
    exact = edit_distance_oracle(s, t)
    bounded = levenshtein(s, t, limit)
    if exact < limit:
        assert bounded == exact
    else:
        assert bounded == limit
    assert levenshtein(s, t) == exact


@pytest.mark.parametrize(
    "s, t, expected",
    [
        ("shinsuke", "shinsuke", 0),
        ("shinsuke", "shinsake", 1),
        ("shinsuke", "xshinsuke", 1),
        ("shinsuke", "shinsukex", 1),
        ("xshinsuke", "shinsuke", 1),
        ("shinsukex", "shinsuke", 1),
        ("shinsuke", "hsinsuke", 2),
        ("shinsuke", "shinsuek", 2),
        ("shinsuke", "xshinsukex", 2),
        ("shinsuke", "shinsukexy", 2),
        ("", "", 0),
        ("", "a", 1),
        ("a", "", 1),
        ("", "ab", 2),
        ("a", "b", 1),
        ("ab", "b", 1),
        ("ab", "ba", 2),
    ],
)
def test_levenshtein_with_limit_two(s, t, expected):
    assert levenshtein(s, t, 2) == expected
    assert min(edit_distance_oracle(s, t), 2) == expected


@settings(max_examples=300, deadline=None)
@given(name, name, thresholds)
def test_names_match_against_oracle(a, b, cfg):
    expected = (
        jaccard_lev_oracle(a.casefold().split(), b.casefold().split(), cfg)
        >= cfg.match_threshold
    )
    assert names_match(a, b, cfg) == expected
