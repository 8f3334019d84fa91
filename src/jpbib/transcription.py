"""Latin-transcription normalization and lookup-variant generation.

Japanese names reach us romanized in inconsistent ways: kunrei-style
spellings (zi, si, tu ...), vowel length marked with a macron, with a
trailing h, or dropped entirely, ん before b, m or p written as m or n,
syllable separators (apostrophe or hyphen) written or left out, and
occasionally fullwidth Latin codepoints.  The name dictionary stores
Hepburn spellings with explicit double vowels, so every probe goes
through the converters here, and this module alone decides how a name
part is spelled.  ``spelling_key`` is the key both the dictionary's
spellings and a probed part are filed under: lowercase, with no
separator.  The walk reads a lowercase key and lists its vowel and nasal
sites with their spellings, ``expand_double_vowels`` is the product over
them, and ``latin_lookup_variants`` is the set of keys probed for one
part.  ``has_latin`` tells a Latin name from a name in another script.
"""

import itertools
import re
import unicodedata
from dataclasses import dataclass, field

__all__ = [
    "EmptyNameError",
    "NormalizedLatin",
    "expand_double_vowels",
    "fully_doubled",
    "has_latin",
    "latin_lookup_variants",
    "normalize_latin",
    "spelling_key",
    "strip_length_h",
    "to_hepburn",
]

# Most expandable vowel sites expand_double_vowels walks, which bounds
# its output at 3^8 spellings.
VOWEL_SITE_CAP = 8


class EmptyNameError(ValueError):
    """Raised when a name is empty after normalization."""


@dataclass
class NormalizedLatin:
    """A cleaned Latin name plus the vowel positions known to be long.

    ``lengthening_positions`` are indices into ``text`` of vowels whose
    length marker (a trailing h) was removed; those sites must not be
    offered undoubled when variants are generated.
    """

    text: str
    lengthening_positions: list[int] = field(default_factory=list)


# Kunrei/nihon-style sequences and their Hepburn spellings.  "shu" and
# "chu" map to themselves so that the "hu" rule cannot fire inside text
# that is already Hepburn (keeps the conversion idempotent).
_HEPBURN_BASE = [
    ("sya", "sha"),
    ("syo", "sho"),
    ("syu", "shu"),
    ("zya", "ja"),
    ("zyo", "jo"),
    ("zyu", "ju"),
    ("tya", "cha"),
    ("tyo", "cho"),
    ("tyu", "chu"),
    ("jya", "ja"),
    ("jyo", "jo"),
    ("jyu", "ju"),
    ("shu", "shu"),
    ("chu", "chu"),
    ("tu", "tsu"),
    ("ti", "chi"),
    ("si", "shi"),
    ("hu", "fu"),
    ("zi", "ji"),
    ("l", "r"),
]

_HEPBURN_TABLE: dict[str, str] = {}
for _src, _dst in _HEPBURN_BASE:
    _HEPBURN_TABLE[_src] = _dst
    _HEPBURN_TABLE[_src.capitalize()] = _dst.capitalize()
# The table's sequences, longest first: the regex engine takes the first
# alternative that matches, so the longest sequence at a position wins.
_HEPBURN_RE = re.compile("|".join(sorted(_HEPBURN_TABLE, key=len, reverse=True)))


def to_hepburn(name: str) -> str:
    """Rewrite a romanized name into the Hepburn system.

    A single left-to-right pass; at each position the longest matching
    sequence wins and its replacement is emitted verbatim.  Lowercase and
    capitalized forms are covered; text already in Hepburn is unchanged.
    """
    return _HEPBURN_RE.sub(lambda match: _HEPBURN_TABLE[match[0]], name)


_CHAR_MAP = str.maketrans({
    # curly quotes and modifier letters standing in for the apostrophe
    "\u2019": "'", "\u2018": "'", "\u02bc": "'",
    # dash punctuation of any width
    "\u2010": "-", "\u2011": "-", "\u2012": "-", "\u2013": "-",
    "\u2014": "-", "\u2015": "-",
    # middle dots separate name parts; ideographic space
    "\u00b7": " ", "\u30fb": " ", "\u3000": " ",
})


# A letter that normalize_latin keeps: basic Latin once compatibility
# decomposition has split off accents and mapped fullwidth forms.
_LATIN_RE = re.compile("[A-Za-z]")


def has_latin(text: str) -> bool:
    """True when ``text`` holds a letter that ``normalize_latin`` keeps."""
    return _LATIN_RE.search(unicodedata.normalize("NFKD", text)) is not None


def normalize_latin(raw: str) -> str:
    """Map a raw Latin name onto plain ASCII.

    Fullwidth Latin becomes basic Latin, diacritics (long-vowel marks
    included) are stripped, whitespace is trimmed and collapsed.  Case
    is preserved.  Raises EmptyNameError when nothing is left.
    """
    mapped = unicodedata.normalize("NFC", raw).translate(_CHAR_MAP)
    # Compatibility decomposition turns fullwidth Latin into basic Latin
    # and splits an accented letter into its base letter and marks.
    text = unicodedata.normalize("NFKD", mapped).encode("ascii", "ignore").decode()
    text = " ".join(text.split())
    if not text:
        raise EmptyNameError(f"name is empty after normalization: {raw!r}")
    return text


def spelling_key(latin: str) -> str:
    """The key a Latin spelling is filed and probed under: lowercased,
    with every syllable separator (apostrophe or hyphen) removed, so that
    "Shin'ichi", "Shin-ichi" and "Shinichi" are one spelling."""
    return latin.lower().replace("'", "").replace("-", "")


def strip_length_h(name: str) -> NormalizedLatin:
    """Drop h's that mark vowel length and remember where they were.

    ``name`` is lowercase, as a spelling key is.  An h counts as a length
    marker when it directly follows o or u and is followed by a consonant
    or the end of the word; the position of the lengthened vowel (in the
    output text) is recorded.  An h before a vowel is never touched.
    """
    out: list[str] = []
    positions: list[int] = []
    for i, ch in enumerate(name):
        if ch == "h" and i > 0 and name[i - 1] in "ou":
            nxt = name[i + 1:i + 2]
            if not nxt or (nxt.isalpha() and nxt not in "aeiou"):
                positions.append(len(out) - 1)
                continue
        out.append(ch)
    return NormalizedLatin("".join(out), positions)


_DOUBLINGS = {
    "a": ("a", "aa"),
    "i": ("i", "ii"),
    "u": ("u", "uu"),
    "e": ("e", "ee", "ei"),
    "o": ("o", "oo", "ou"),
}
_DIGRAPHS = {"aa", "ii", "uu", "ee", "ei", "oo", "ou"}
# The nasal ん before b, m or p is heard as m and written either way.
_NASALS = {"m": ("m", "n"), "n": ("n", "m")}


def _vowel_segments(
    text: str, lengthened: list[int]
) -> tuple[list[tuple[str, ...]], int]:
    # The spellings of each piece of the lowercase ``text`` in order, and
    # how many pieces are single vowels with more than one spelling.  An
    # m or n before b, m or p has two spellings too, but is not counted.
    segments: list[tuple[str, ...]] = []
    site_count = 0
    i = 0
    while i < len(text):
        ch = text[i]
        following = text[i + 1:i + 2]
        if ch in _DOUBLINGS:
            if ch + following in _DIGRAPHS:
                segments.append((ch + following,))
                i += 2
                continue
            options = _DOUBLINGS[ch]
            segments.append(options[1:] if i in lengthened else options)
            site_count += 1
        elif ch in _NASALS and following in ("b", "m", "p"):
            segments.append(_NASALS[ch])
        else:
            segments.append((ch,))
        i += 1
    return segments, site_count


def expand_double_vowels(base: NormalizedLatin) -> list[str]:
    """Enumerate the spellings a lowercase name takes under vowel doubling.

    Every single vowel may also appear doubled (o and e each have two
    doublings: oo/ou resp. ee/ei), and an m or n before b, m or p may
    also appear as the other nasal; the variants are the cartesian
    product over all such sites.  Sites listed in
    ``lengthening_positions`` are known to be long, so their undoubled
    spelling is omitted.  Existing double vowels are kept as-is.  Past
    ``VOWEL_SITE_CAP`` expandable vowel sites only two spellings are
    given, ``base.text`` and ``fully_doubled(base.text)``; nasal sites do
    not count toward the cap.
    """
    segments, site_count = _vowel_segments(base.text, base.lengthening_positions)
    if site_count > VOWEL_SITE_CAP:
        return [base.text, fully_doubled(base.text)]
    return ["".join(parts) for parts in itertools.product(*segments)]


def fully_doubled(text: str) -> str:
    """The lowercase ``text`` with every single vowel doubled.

    Existing double vowels and every nasal are kept.  This is the one
    doubled spelling ``expand_double_vowels`` gives past
    ``VOWEL_SITE_CAP``.
    """
    segments, _ = _vowel_segments(text, [])
    # A single vowel's first spelling is a key of _DOUBLINGS; that of a
    # double vowel ("ou") or a nasal is not.
    return "".join(
        options[1] if options[0] in _DOUBLINGS else options[0]
        for options in segments
    )


def latin_lookup_variants(name: str) -> set[str]:
    """All spellings probed against the dictionary for one name part, as
    spelling keys.

    The part's ``spelling_key``, and ``expand_double_vowels`` of that
    key's Hepburn base with length h's removed.  The key is lowercase and
    holds no separator, so the Hepburn table's lowercase rows and the
    walk's sites apply across a dropped separator (``Koh-ji`` is
    ``kohji``, whose h marks a long o).
    """
    key = spelling_key(name)
    return {key, *expand_double_vowels(strip_length_h(to_hepburn(key)))}
