"""Transcription normalization and variant generation."""

import itertools
import random
import re
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jpbib.transcription import (
    _HEPBURN_TABLE,
    EmptyNameError,
    NormalizedLatin,
    expand_double_vowels,
    fully_doubled,
    normalize_latin,
    strip_length_h,
    to_hepburn,
)

HEPBURN_TABLE = [
    ("tu", "tsu"),
    ("ti", "chi"),
    ("sya", "sha"),
    ("syo", "sho"),
    ("syu", "shu"),
    ("zya", "ja"),
    ("zyo", "jo"),
    ("zyu", "ju"),
    ("tya", "cha"),
    ("tyo", "cho"),
    ("tyu", "chu"),
    ("si", "shi"),
    ("hu", "fu"),
    ("zi", "ji"),
    ("jya", "ja"),
    ("jyo", "jo"),
    ("jyu", "ju"),
    ("l", "r"),
]


@pytest.mark.parametrize("source,expected", HEPBURN_TABLE)
def test_to_hepburn_lowercase_rows(source, expected):
    assert to_hepburn(source) == expected


@pytest.mark.parametrize("source,expected", HEPBURN_TABLE)
def test_to_hepburn_capitalized_rows(source, expected):
    assert to_hepburn(source.capitalize()) == expected.capitalize()


def test_to_hepburn_examples():
    assert to_hepburn("Kenzi") == "Kenji"
    assert to_hepburn("Tiba") == "Chiba"
    assert to_hepburn("Nakamura") == "Nakamura"
    assert to_hepburn("Hitosi") == "Hitoshi"


def test_to_hepburn_leaves_hepburn_text_alone():
    for name in ["Shuhei", "Chuo", "Shinichi", "Tsutomu", "Fujita", "Chiba"]:
        assert to_hepburn(name) == name


def test_to_hepburn_idempotent_over_random_strings():
    rng = random.Random(1234)
    alphabet = string.ascii_lowercase + "SZTHJYULszthjyul"
    for _ in range(10_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        once = to_hepburn(text)
        assert to_hepburn(once) == once


def scan_hepburn(name: str) -> str:
    """The reference for ``to_hepburn``: a left-to-right scan that tries
    the table's 3-, 2- and 1-character sequences at each position."""
    out = []
    i = 0
    while i < len(name):
        for length in (3, 2, 1):
            replacement = _HEPBURN_TABLE.get(name[i : i + length])
            if replacement is not None:
                out.append(replacement)
                i += length
                break
        else:
            out.append(name[i])
            i += 1
    return "".join(out)


# Letters of the table's sequences in both cases, so that matches are
# frequent and overlap, the rest of the alphabet, and separators.
_romanized = st.text(
    alphabet=st.sampled_from("syztjhuaioclSYZTJHUAIOCL'- " + string.ascii_letters),
    max_size=16,
)


@settings(max_examples=2000, deadline=None)
@given(_romanized)
def test_to_hepburn_equals_the_scan(name):
    assert to_hepburn(name) == scan_hepburn(name)


def test_strip_length_h():
    result = strip_length_h("Gotoh")
    assert result.text == "Goto"
    assert result.lengthening_positions == [3]

    result = strip_length_h("Hitoshi")
    assert result.text == "Hitoshi"
    assert result.lengthening_positions == []

    result = strip_length_h("ohta")
    assert result.text == "ota"
    assert result.lengthening_positions == [0]


def test_strip_length_h_never_removes_prevocalic_h():
    rng = random.Random(5)
    for _ in range(2_000):
        text = "".join(rng.choice("ohualp") for _ in range(rng.randrange(10)))
        result = strip_length_h(text)
        assert len(result.text) == len(text) - len(result.lengthening_positions)
        # Every h that directly precedes a vowel must survive.
        prevocalic = sum(
            1
            for i, ch in enumerate(text[:-1])
            if ch == "h" and text[i + 1] in "aeiou"
        )
        assert result.text.count("h") >= prevocalic


def test_normalize_latin_fullwidth():
    assert normalize_latin("Ｋａｉ") == "Kai"


def test_normalize_latin_macron():
    assert normalize_latin("Gotō") == "Goto"
    assert normalize_latin("Gotô") == "Goto"


def test_normalize_latin_trims_and_collapses():
    assert normalize_latin("  Morida ") == "Morida"
    assert normalize_latin("Shinsuke   Mori") == "Shinsuke Mori"


def test_normalize_latin_strips_diacritics_to_ascii():
    assert normalize_latin("Éric") == "Eric"
    rng = random.Random(31)
    samples = ["Gotō", "Ｋａｉ", "Éric", "Shin’ichi", "A–B", "ただし Tadashi"]
    for raw in samples + ["".join(rng.choice("aāオbcＡ ") for _ in range(8)) or "x"]:
        try:
            result = normalize_latin(raw)
        except EmptyNameError:
            continue
        assert all(ord(ch) < 128 for ch in result)


def test_normalize_latin_empty_raises():
    with pytest.raises(EmptyNameError):
        normalize_latin("   ")


def test_expand_double_vowels_with_lengthening():
    base = strip_length_h("Gotoh")
    variants = set(expand_double_vowels(base))
    assert variants == {"Gotoo", "Gotou", "Gootoo", "Goutoo", "Gootou", "Goutou"}


def test_expand_double_vowels_without_lengthening():
    variants = set(expand_double_vowels(NormalizedLatin("Goto")))
    assert variants == {
        "Goto", "Gooto", "Gouto",
        "Gotoo", "Gotou", "Gootoo",
        "Goutoo", "Gootou", "Goutou",
    }
    assert len(variants) == 9


def test_expand_double_vowels_mori():
    variants = set(expand_double_vowels(NormalizedLatin("Mori")))
    assert variants == {"Mori", "Moori", "Mouri", "Morii", "Moorii", "Mourii"}


def test_expand_double_vowels_counts_and_membership():
    per_vowel = {"a": 2, "i": 2, "u": 2, "e": 3, "o": 3}
    rng = random.Random(77)
    for _ in range(300):
        text = "".join(rng.choice("aeiouxyz") for _ in range(rng.randrange(1, 7)))
        base = NormalizedLatin(text)
        sites = []
        i = 0
        while i < len(text):
            if text[i] in "aeiou":
                pair = text[i:i + 2]
                if pair in {"aa", "ii", "uu", "ee", "ei", "oo", "ou"}:
                    i += 2
                    continue
                sites.append(text[i])
            i += 1
        expected = 1
        for vowel in sites:
            expected *= per_vowel[vowel]
        variants = expand_double_vowels(base)
        assert len(variants) == expected
        assert text in variants  # no lengthening info keeps the base
        assert _fully_doubled(text) in variants
        assert fully_doubled(text) == _fully_doubled(text)


def _fully_doubled(text: str) -> str:
    # First doubling option at every single-vowel site; digraphs kept.
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        pair = text[i:i + 2]
        if ch in "aeiou" and pair in {"aa", "ii", "uu", "ee", "ei", "oo", "ou"}:
            out.append(pair)
            i += 2
        elif ch in "aeiou":
            out.append(ch + ch)
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def test_expand_double_vowels_predoubled_left_alone():
    variants = set(expand_double_vowels(NormalizedLatin("Kyouko")))
    # "ou" is one fixed site, the final o expands.
    assert variants == {"Kyouko", "Kyoukoo", "Kyoukou"}


def test_expand_double_vowels_cap():
    assert len(expand_double_vowels(NormalizedLatin("xa" * 8))) == 2**8
    # Past the cap: the text as written and the text fully doubled.
    assert expand_double_vowels(NormalizedLatin("xa" * 9)) == ["xa" * 9, "xaa" * 9]
    assert expand_double_vowels(NormalizedLatin("Xamba" * 5)) == [
        "Xamba" * 5,
        "Xaambaa" * 5,
    ]


def test_consonant_variants():
    # ん before b, m or p is written m or n, and either spelling gives both.
    assert set(expand_double_vowels(NormalizedLatin("Kaambee"))) == {
        "Kaambee",
        "Kaanbee",
    }
    assert expand_double_vowels(NormalizedLatin("Moorii")) == ["Moorii"]
    assert set(expand_double_vowels(NormalizedLatin("Kaanpoo"))) == {
        "Kaampoo",
        "Kaanpoo",
    }
    assert set(expand_double_vowels(NormalizedLatin("Hoommaa"))) == {
        "Hoommaa",
        "Hoonmaa",
    }


def test_consonant_variants_all_combinations():
    variants = set(expand_double_vowels(NormalizedLatin("nbmp")))
    assert variants == {"nbmp", "mbmp", "nbnp", "mbnp"}
    variants = set(expand_double_vowels(NormalizedLatin("nmm")))
    assert variants == {"nmm", "mmm", "nnm", "mnm"}


def test_nasal_sites_are_not_capped_or_doubled():
    # Eight vowel sites and three nasal sites: the cap counts vowels only.
    variants = expand_double_vowels(NormalizedLatin("xa" * 8 + "mb" * 3))
    assert len(variants) == 2**8 * 2**3
    assert fully_doubled("Kambe") == "Kaambee"
    assert fully_doubled("Homma") == "Hoommaa"
    assert fully_doubled("Kyouko") == "Kyoukoo"


def swap_consonants(name: str) -> list[str]:
    """The reference for the nasal sites of ``expand_double_vowels``: each
    combination of m/n swaps before b, m or p, written into a copy of the
    name, repeats dropped."""
    sites = [
        i
        for i, ch in enumerate(name[:-1])
        if ch in "mn" and name[i + 1] in "bmp"
    ]
    if not sites:
        return [name]
    swaps = {"m": "n", "n": "m"}
    variants: list[str] = []
    for choice in itertools.product((False, True), repeat=len(sites)):
        chars = list(name)
        for site, swap in zip(sites, choice):
            if swap:
                chars[site] = swaps[chars[site]]
        candidate = "".join(chars)
        if candidate not in variants:
            variants.append(candidate)
    return variants


_VOWEL_SPELLINGS = {
    "a": ("a", "aa"),
    "i": ("i", "ii"),
    "u": ("u", "uu"),
    "e": ("e", "ee", "ei"),
    "o": ("o", "oo", "ou"),
}


def vowel_pieces(text: str, lengthened=()) -> list[tuple[str, ...]]:
    """The reference for the vowel sites of ``expand_double_vowels``:
    ``text`` cut, left to right, into double vowels and single
    characters, each with its spellings.  A lengthened single vowel loses
    its undoubled spelling."""
    pieces = []
    start = 0
    for token in re.findall("aa|ii|uu|ee|ei|oo|ou|.", text, re.S):
        spellings = (token,)
        if token in _VOWEL_SPELLINGS:
            spellings = _VOWEL_SPELLINGS[token]
            if start in lengthened:
                spellings = spellings[1:]
        pieces.append(spellings)
        start += len(token)
    return pieces


@settings(max_examples=2000, deadline=None)
@example("Homma")
@given(st.text(alphabet=st.sampled_from("mnbpa'- "), max_size=12))
def test_consonant_variants_equal_the_reference(name):
    expected = {
        "".join(spellings)
        for candidate in swap_consonants(name)
        for spellings in itertools.product(*vowel_pieces(candidate))
    }
    variants = expand_double_vowels(NormalizedLatin(name))
    assert set(variants) == expected
    assert len(variants) == len(expected)


def test_variant_lists_contain_input_and_are_distinct():
    rng = random.Random(13)
    alphabet = "mnbpa'-"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 8)))
        variants = expand_double_vowels(NormalizedLatin(text))
        assert text in variants
        assert len(variants) == len(set(variants))
