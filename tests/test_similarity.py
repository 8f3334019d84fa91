"""Distance and similarity measures, checked against independent oracles."""

import random
import string

import pytest

from jpbib.similarity import (
    MatchConfig,
    jaccard,
    jaccard_lev,
    levenshtein,
    levenshtein_py,
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
    rng = random.Random(4)
    for _ in range(200):
        s = "".join(rng.choice("ab") for _ in range(rng.randrange(5)))
        t = "".join(rng.choice("abc") for _ in range(rng.randrange(5)))
        assert levenshtein(s, t) == edit_distance_oracle(s, t)


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


def test_pure_python_kernel_agrees_with_selected_kernel():
    rng = random.Random(23)
    for _ in range(500):
        s = "".join(rng.choice("abcde") for _ in range(rng.randrange(12)))
        t = "".join(rng.choice("abcde") for _ in range(rng.randrange(12)))
        assert levenshtein(s, t) == levenshtein_py(s, t)


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


def test_pure_python_fallback_selected_when_extension_missing():
    import subprocess
    import sys
    import textwrap

    code = textwrap.dedent(
        """
        import sys
        sys.modules['jpbib.similarity._speedups'] = None  # forces ImportError
        import jpbib.similarity as sim
        assert sim.USING_COMPILED is False
        assert sim.levenshtein is sim.levenshtein_py
        assert sim.levenshtein('kitten', 'sitting') == 3
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
