"""Author-name resolution: split, categorize and match Latin/kanji names.

A harvested author usually arrives as a kanji string without separators
plus a Latin transcription.  The dictionary tells us which readings are
surnames and which are given names, so the kanji string is tried at
every split point until a (family, given) pair is found whose readings
match some transcription variant of the Latin name: each Latin name part
is probed in every spelling ``transcription.latin_lookup_variants``
gives it, and every reading and dictionary spelling is compared by its
``transcription.spelling_key``; how a part is spelled is decided there
alone.  A name in another script (Hangul, Cyrillic ...: letters, none of
them Latin) that comes without a kanji form is kept as written.  Every
author ends up with exactly one status describing how well that worked.
"""

import enum
import itertools
import re
from dataclasses import dataclass, field

from .enamdict import TYPE_COMBINATIONS, NameType
from .transcription import (
    EmptyNameError,
    has_latin,
    latin_lookup_variants,
    normalize_latin,
    spelling_key,
)

__all__ = [
    "AuthorResolution",
    "NameDictionary",
    "NameStatus",
    "PersonName",
    "detect_abbreviated",
    "kanji_name_candidates",
    "latin_names",
    "match_latin_kanji",
    "resolve_author",
    "split_latin_full_name",
]

FAMILY_TYPES = frozenset({NameType.SURNAME, NameType.UNCLASSIFIED})
GIVEN_TYPES = frozenset(
    {NameType.GIVEN, NameType.FEMALE_GIVEN, NameType.MALE_GIVEN, NameType.UNCLASSIFIED}
)


class NameStatus(enum.Enum):
    """Quality verdict for one author-name assignment."""

    OK = "ok"
    UNDEFINED_LATIN_MISSING = "undefined"
    ABBREVIATED = "abbreviated"
    NOT_FOUND_IN_DICTIONARY = "not found in name dictionary"
    NO_KANJI_MATCHING_FOUND = "no kanji matching found"
    BAD_DATA_QUALITY = "bad data quality in source"
    POSSIBLE_NAME_ANOMALY = "possible name anomaly"
    NAME_ANOMALY = "name anomaly"


@dataclass(frozen=True)
class PersonName:
    """A (given, family) pair in one script; either side may be empty."""

    given: str
    family: str

    def display(self) -> str:
        """The non-empty parts, given first, joined by one space."""
        if self.given and self.family:
            return f"{self.given} {self.family}"
        return self.given or self.family


@dataclass
class AuthorResolution:
    """A resolved author: Latin name, kanji split and the match verdict.

    ``candidates`` holds Latin reading combinations and is only filled
    when no Latin name was supplied at all.  When kanji matching fails,
    ``kanji`` keeps the unsplit string as the family part.
    """

    latin: PersonName | None
    kanji: PersonName | None
    candidates: list[PersonName] = field(default_factory=list)
    status: NameStatus = NameStatus.UNDEFINED_LATIN_MISSING


def latin_names(resolutions: list[AuthorResolution]) -> list[str]:
    """The non-empty Latin display names of ``resolutions``, in order."""
    return [r.latin.display() for r in resolutions if r.latin and r.latin.display()]


class NameDictionary:
    """Immutable lookup structure over dictionary name records.

    It answers the two questions resolution asks: which name types a
    Latin spelling has, and which family or given readings a kanji
    surface has.  Each record is filed under one key, its
    ``spelling_key``, and every lookup goes through that key too, so
    case and separators never matter: "Shin-ichi" and "Shinichi" find
    the spelling "Shin'ichi", and fit it as a kanji reading.  Readings
    keep dictionary order and their own spelling, which defines the
    candidate ordering downstream.

    It is built from ``(surface, latin, types)`` rows, as
    ``SqliteStore.load_name_records`` yields them, read one at a time: the
    store's iterator builds the dictionary with no record object per row
    and no row list beside it.  Each kind (family or given) keeps one dict
    from surface to a tuple of its readings; which kinds a row joins is
    looked up once per type combination.  Every type set is the parser's
    shared frozenset of its combination (``TYPE_COMBINATIONS``), unions
    included.

    ``probe`` expands a Latin name part into its transcription variants
    once and memoizes, per spelling key of the part, the variants the
    dictionary holds and their types.  The memo lives as long as the
    dictionary, which the harvest builds once per run.  Variants that are
    no key of the type index are not kept: every reading's spelling key
    is such a key, so no other variant can ever match a reading.
    """

    def __init__(self, rows):
        self._types: dict[str, frozenset[NameType]] = {}
        # Per kind, FAMILY_TYPES or GIVEN_TYPES: surface -> its readings.
        self._readings: dict[frozenset[NameType], dict[str, tuple[str, ...]]] = {
            FAMILY_TYPES: {},
            GIVEN_TYPES: {},
        }
        self._probes: dict[str, tuple[tuple[str, ...], frozenset[NameType]]] = {}
        # Each type combination's readings dicts: those of the kinds it meets.
        joins = {
            types: tuple(
                readings
                for kind, readings in self._readings.items()
                if not kind.isdisjoint(types)
            )
            for types in TYPE_COMBINATIONS
        }
        index = self._types
        for surface, latin, types in rows:
            key = spelling_key(latin)
            known = index.get(key)
            index[key] = types if known is None else TYPE_COMBINATIONS[known | types]
            for readings in joins[types]:
                held = readings.get(surface, ())
                if latin not in held:
                    readings[surface] = (*held, latin)

    def surface_readings(
        self, surface: str, kind: frozenset[NameType]
    ) -> tuple[str, ...]:
        """Latin readings of a surface whose types meet ``kind``, which is
        FAMILY_TYPES or GIVEN_TYPES, in dictionary order."""
        return self._readings[kind].get(surface, ())

    def probe(self, part: str) -> tuple[tuple[str, ...], frozenset[NameType]]:
        """The variants of a Latin name part that the dictionary holds, as
        spelling keys, and the union of their types; case and separators
        are ignored."""
        key = spelling_key(part)
        probed = self._probes.get(key)
        if probed is None:
            forms = tuple(
                form for form in latin_lookup_variants(key) if form in self._types
            )
            # The memo keeps the shared set of the union's combination.
            types = TYPE_COMBINATIONS[
                frozenset().union(*(self._types[form] for form in forms))
            ]
            probed = self._probes[key] = (forms, types)
        return probed


_ABBREV_TOKEN_RE = re.compile(r"^[A-Za-z]\.?$")


def detect_abbreviated(raw: str) -> bool:
    """True when any name token is a bare initial ("T." or "T")."""
    return any(_ABBREV_TOKEN_RE.match(token) for token in raw.split())


def split_latin_full_name(
    raw: str, dictionary: NameDictionary
) -> tuple[PersonName, NameStatus]:
    """Split a full Latin name and report how trustworthy the split is.

    Comma means family-first; whitespace means given-first unless the
    dictionary types say otherwise.  Fused forms like "NobukazuYOSHIOKA"
    are split at the uppercase run.  A lone token that the dictionary
    does not know is returned as both given and family.
    """
    raw = raw.strip()
    if "," in raw:
        family, _, given = raw.partition(",")
        given, family = given.strip(), family.strip()
        if given or family:
            return PersonName(given, family), _categorize_hint(
                given, family, dictionary
            )
        return PersonName(raw, raw), NameStatus.NAME_ANOMALY

    tokens = raw.split()
    if len(tokens) >= 2:
        return _split_tokens(tokens, dictionary)

    match = re.fullmatch(r"([A-Z][a-z]+)([A-Z]{3,})", raw)
    if match:
        given, family = match.group(1), match.group(2).capitalize()
        return PersonName(given, family), NameStatus.BAD_DATA_QUALITY
    if re.fullmatch(r"[A-Z]{3,}", raw):
        return PersonName("", raw.capitalize()), NameStatus.POSSIBLE_NAME_ANOMALY

    types = _token_types(raw, dictionary)
    if types & FAMILY_TYPES and not types & GIVEN_TYPES:
        return PersonName("", raw), NameStatus.OK
    if types:
        return PersonName(raw, ""), NameStatus.OK
    return PersonName(raw, raw), NameStatus.NAME_ANOMALY


def _token_types(token: str, dictionary: NameDictionary) -> frozenset[NameType]:
    return dictionary.probe(token)[1]


def _split_tokens(
    tokens: list[str], dictionary: NameDictionary
) -> tuple[PersonName, NameStatus]:
    first = tokens[0] if len(tokens) == 2 else " ".join(tokens[:-1])
    last = tokens[-1]
    types_first = _token_types(first, dictionary) if " " not in first else frozenset()
    types_last = _token_types(last, dictionary)

    given_first_ok = bool(types_first & GIVEN_TYPES and types_last & FAMILY_TYPES)
    family_first_ok = bool(types_first & FAMILY_TYPES and types_last & GIVEN_TYPES)
    if given_first_ok:
        return PersonName(first, last), NameStatus.OK
    if family_first_ok:
        return PersonName(last, first), NameStatus.OK
    # Partial evidence still fixes the orientation, but the name cannot
    # count as fully found.
    if types_last & FAMILY_TYPES or types_first & GIVEN_TYPES:
        return PersonName(first, last), NameStatus.NOT_FOUND_IN_DICTIONARY
    if types_first & FAMILY_TYPES or types_last & GIVEN_TYPES:
        return PersonName(last, first), NameStatus.NOT_FOUND_IN_DICTIONARY
    return PersonName(first, last), NameStatus.NOT_FOUND_IN_DICTIONARY


def _categorize_hint(
    given: str, family: str, dictionary: NameDictionary
) -> NameStatus:
    # Every non-empty part needs its kind of dictionary type; callers
    # pass at least one non-empty part.
    given_ok = not given or bool(_token_types(given, dictionary) & GIVEN_TYPES)
    family_ok = not family or bool(_token_types(family, dictionary) & FAMILY_TYPES)
    if given_ok and family_ok:
        return NameStatus.OK
    return NameStatus.NOT_FOUND_IN_DICTIONARY


def _part_hit(
    readings: tuple[str, ...], forms: tuple[str, ...] | None, initial: str
) -> bool:
    # A reading fits a Latin name part when its spelling key is one of the
    # part's probe forms or, for an abbreviated part (no forms), starts
    # with its initial.
    if forms is None:
        return any(reading.lower().startswith(initial) for reading in readings)
    return any(spelling_key(reading) in forms for reading in readings)


def _kanji_text(kanji_string: str | None) -> str:
    # A creator's kanji string as it is split and kept: without whitespace.
    return re.sub(r"\s+", "", kanji_string or "")


def match_latin_kanji(
    latin: PersonName | None,
    kanji_string: str,
    dictionary: NameDictionary,
) -> AuthorResolution:
    """Match a split Latin name against an unsegmented kanji string.

    Every split point is tried, family first; a split is accepted when
    the prefix has a surname record matching a transcription variant of
    the Latin family and the suffix a given-name record matching the
    Latin given analogously.  Abbreviated names only ever reach
    "possible name anomaly", and that only when exactly one split fits
    the surviving initial.
    """
    kanji = _kanji_text(kanji_string)
    kanji_unsplit = PersonName("", kanji) if kanji else None

    if latin is None or (not latin.given and not latin.family):
        return AuthorResolution(None, kanji_unsplit)

    given_abbrev = bool(latin.given) and detect_abbreviated(latin.given)
    family_abbrev = bool(latin.family) and detect_abbreviated(latin.family)
    abbreviated = given_abbrev or family_abbrev

    if not kanji:
        if abbreviated:
            return AuthorResolution(latin, None, status=NameStatus.ABBREVIATED)
        status = _categorize_hint(latin.given, latin.family, dictionary)
        return AuthorResolution(latin, None, status=status)

    splits = _accepted_splits(latin, kanji, dictionary, given_abbrev, family_abbrev)
    if abbreviated:
        if len(splits) == 1:
            return AuthorResolution(
                latin, splits[0], status=NameStatus.POSSIBLE_NAME_ANOMALY
            )
        return AuthorResolution(
            latin, kanji_unsplit, status=NameStatus.ABBREVIATED
        )
    if splits:
        return AuthorResolution(latin, splits[0], status=NameStatus.OK)
    return AuthorResolution(
        latin, kanji_unsplit, status=NameStatus.NO_KANJI_MATCHING_FOUND
    )


def _accepted_splits(
    latin: PersonName,
    kanji: str,
    dictionary: NameDictionary,
    given_abbrev: bool,
    family_abbrev: bool,
) -> list[PersonName]:
    if not latin.given or not latin.family or len(kanji) < 2:
        return []
    family_forms = None if family_abbrev else dictionary.probe(latin.family)[0]
    given_forms = None if given_abbrev else dictionary.probe(latin.given)[0]
    family_initial = latin.family[0].lower()
    given_initial = latin.given[0].lower()
    splits: list[PersonName] = []
    for i in range(1, len(kanji)):
        family = kanji[:i]
        readings = dictionary.surface_readings(family, FAMILY_TYPES)
        # Most prefixes are no surname: their given part is never read.
        if not readings or not _part_hit(readings, family_forms, family_initial):
            continue
        given = kanji[i:]
        if _part_hit(
            dictionary.surface_readings(given, GIVEN_TYPES), given_forms, given_initial
        ):
            splits.append(PersonName(given, family))
    return splits


def kanji_name_candidates(
    kanji_string: str, dictionary: NameDictionary
) -> list[PersonName]:
    """Latin reading combinations for a kanji name without Latin form.

    Split points are tried left to right; per accepted split every
    (family reading x given reading) pair is emitted, given varying
    fastest, in dictionary order, deduplicated.
    """
    kanji = _kanji_text(kanji_string)
    return list(dict.fromkeys(
        PersonName(given, family)
        for i in range(1, len(kanji))
        for family, given in itertools.product(
            dictionary.surface_readings(kanji[:i], FAMILY_TYPES),
            dictionary.surface_readings(kanji[i:], GIVEN_TYPES),
        )
    ))


# Split verdicts that outlast a kanji match.  A tuple: a member compares by
# identity in C, but hashes through a Python call.
_STICKY = (
    NameStatus.BAD_DATA_QUALITY,
    NameStatus.NAME_ANOMALY,
    NameStatus.POSSIBLE_NAME_ANOMALY,
)


def resolve_author(
    latin_raw: str | None,
    kanji_raw: str | None,
    dictionary: NameDictionary,
) -> AuthorResolution:
    """Full resolution pipeline for one author.

    Normalizes and splits the Latin name, matches it against the kanji
    string, and falls back to reading candidates when no Latin name was
    supplied.  Splits flagged as bad data quality or anomalies keep that
    flag even when the kanji matching succeeds, so the record stays
    marked for review.
    """
    latin_text = None
    if latin_raw and latin_raw.strip():
        # A name in another script holds letters, none of them Latin; its
        # digits and punctuation are no Latin name either.
        if has_latin(latin_raw) or not any(map(str.isalpha, latin_raw)):
            try:
                latin_text = normalize_latin(latin_raw)
            except EmptyNameError:
                pass
        # Nothing Latin and no kanji form beside it: the field stands as
        # the unsplit original.
        if latin_text is None and not kanji_raw:
            original = " ".join(latin_raw.split())
            return AuthorResolution(None, PersonName("", original))

    if latin_text is None:
        resolution = match_latin_kanji(None, kanji_raw or "", dictionary)
        resolution.candidates = kanji_name_candidates(kanji_raw or "", dictionary)
        return resolution

    split, hint = split_latin_full_name(latin_text, dictionary)
    resolution = match_latin_kanji(split, kanji_raw or "", dictionary)
    if hint in _STICKY and resolution.status not in (
        NameStatus.ABBREVIATED,
        NameStatus.POSSIBLE_NAME_ANOMALY,
    ):
        resolution.status = hint
    return resolution
