"""Name splitting, kanji/Latin matching and candidate generation."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jpbib.config import Config
from jpbib.enamdict import TYPE_COMBINATIONS, NameRecord, NameType
from jpbib.matching import (
    FAMILY_TYPES,
    GIVEN_TYPES,
    NameDictionary,
    NameStatus,
    PersonName,
    detect_abbreviated,
    kanji_name_candidates,
    latin_lookup_variants,
    match_latin_kanji,
    resolve_author,
    spelling_key,
    split_latin_full_name,
)
from jpbib.store import SqliteStore
from jpbib.transcription import VOWEL_SITE_CAP, strip_length_h, to_hepburn
from test_transcription import swap_consonants, vowel_pieces


@given(st.text(), st.text())
def test_display_joins_the_non_empty_parts(given_part, family):
    expected = " ".join(p for p in (given_part, family) if p)
    assert PersonName(given_part, family).display() == expected


def test_split_fused_uppercase_family(name_dictionary):
    person, hint = split_latin_full_name("NobukazuYOSHIOKA", name_dictionary)
    assert person == PersonName("Nobukazu", "Yoshioka")
    assert hint is NameStatus.BAD_DATA_QUALITY


def test_split_kenjitoda(name_dictionary):
    person, hint = split_latin_full_name("KenjiTODA", name_dictionary)
    assert person == PersonName("Kenji", "Toda")
    assert hint is NameStatus.BAD_DATA_QUALITY


def test_split_with_dictionary_evidence(name_dictionary):
    person, hint = split_latin_full_name("Shinsuke Mori", name_dictionary)
    assert person == PersonName("Shinsuke", "Mori")
    assert hint is NameStatus.OK


def test_split_reversed_order_detected(name_dictionary):
    person, hint = split_latin_full_name("Mori Shinsuke", name_dictionary)
    assert person == PersonName("Shinsuke", "Mori")
    assert hint is NameStatus.OK


def test_split_comma_means_family_first(name_dictionary):
    person, hint = split_latin_full_name("Mori, Shinsuke", name_dictionary)
    assert person == PersonName("Shinsuke", "Mori")
    assert hint is NameStatus.OK


def test_split_two_unknown_tokens_keep_order(name_dictionary):
    person, hint = split_latin_full_name("Graham Neubig", name_dictionary)
    assert person == PersonName("Graham", "Neubig")
    assert hint is NameStatus.NOT_FOUND_IN_DICTIONARY


def test_split_single_unknown_token(name_dictionary):
    person, hint = split_latin_full_name("Zzyzx", name_dictionary)
    assert person == PersonName("Zzyzx", "Zzyzx")
    assert hint is NameStatus.NAME_ANOMALY


def test_split_all_caps_token(name_dictionary):
    person, hint = split_latin_full_name("YOSHIOKA", name_dictionary)
    assert person == PersonName("", "Yoshioka")
    assert hint is NameStatus.POSSIBLE_NAME_ANOMALY


def test_split_never_returns_two_empty_parts(name_dictionary):
    for raw in ["NobukazuYOSHIOKA", "Mori", "Zzyzx", "a b c", "QQQQ", ",", "x,"]:
        person, _ = split_latin_full_name(raw, name_dictionary)
        assert person.given or person.family


def test_detect_abbreviated():
    assert detect_abbreviated("T. Nakamura")
    assert detect_abbreviated("T Nakamura")
    assert not detect_abbreviated("Takeshi Nakamura")


def test_latin_lookup_variants_gotoh():
    variants = latin_lookup_variants("Gotoh")
    assert "gotoh" in variants  # the part itself, lowercased
    assert "gotou" in variants and "gotoo" in variants
    assert "goto" not in variants  # the removed h marked the vowel long


def test_latin_lookup_variants_mori():
    variants = latin_lookup_variants("Mori")
    assert {"mori", "moori", "mouri"} <= variants
    assert "Mori" not in variants


def test_latin_lookup_variants_kai():
    assert latin_lookup_variants("KAI") == {"kai", "kaai", "kaii", "kaaii"}


def test_latin_lookup_variants_deduplicated():
    # Each separator spelling is one spelling key, probed without its
    # separators.
    variants = latin_lookup_variants("Shin-ichi")
    assert isinstance(variants, set)
    assert variants == latin_lookup_variants("Shin'ichi")
    assert variants == latin_lookup_variants("Shinichi")
    assert "shinichi" in variants
    assert not any("'" in form or "-" in form for form in variants)


def test_spelling_key():
    assert spelling_key("Shin'ichi") == "shinichi"
    assert spelling_key("SHIN-ICHI") == "shinichi"
    assert spelling_key("a'b-c'-") == "abc"
    assert spelling_key("Mori") == "mori"


def reference_lookup_variants(part: str) -> set[str]:
    """The reference for ``latin_lookup_variants``, composed as separate
    steps: the part lowercased without apostrophes and hyphens, then the
    m/n swaps of ``swap_consonants``, then vowel doubling by
    ``vowel_pieces``.  Past the cap, that key, its Hepburn base and that
    base with every single vowel doubled."""
    key = part.lower().replace("'", "").replace("-", "")
    base = strip_length_h(to_hepburn(key))
    variants = {key}
    for candidate in swap_consonants(base.text):
        pieces = vowel_pieces(candidate, base.lengthening_positions)
        if sum(len(spellings) > 1 for spellings in pieces) > VOWEL_SITE_CAP:
            doubled = "".join(
                spellings[1] if len(spellings) > 1 else spellings[0]
                for spellings in vowel_pieces(base.text)
            )
            return {key, base.text, doubled}
        variants.update(map("".join, itertools.product(*pieces)))
    return variants


# Vowels, nasal sites, length h's and separators.  The second strategy
# joins nine to twelve one-vowel syllables, so its parts are mostly past
# VOWEL_SITE_CAP.
_walk_parts = st.one_of(
    st.text(alphabet="aeiouAEIOUmnbpMNBPhHyY'-", max_size=12),
    st.lists(
        st.sampled_from(["ka", "Mi", "nbu", "pe", "ho", "y'o", "-a", "mmU", "oh"]),
        min_size=9,
        max_size=12,
    ).map("".join),
)


@settings(max_examples=1000, deadline=None)
@example("Sambamatakayamada")  # eight vowel sites and a nasal site
@example("Aoyamakasamatanaka")
@example("Homma")
@example("Koh-ji")  # the h marks a long o once the hyphen is gone
@example("Shin-'ichi")
@given(_walk_parts)
def test_latin_lookup_variants_equal_the_reference(part):
    assert latin_lookup_variants(part) == reference_lookup_variants(part)


def test_dictionary_lookup_succeeds_for_both_apostrophe_spellings(name_dictionary):
    male = frozenset({NameType.MALE_GIVEN})
    assert name_dictionary.probe("Shin'ichi")[1] == male
    assert name_dictionary.probe("Shinichi") == (("shinichi",), male)
    # The reading keeps the dictionary spelling.
    assert name_dictionary.surface_readings("真一", GIVEN_TYPES) == ("Shin'ichi",)
    # Case-insensitive keys.
    assert name_dictionary.probe("MORI") == name_dictionary.probe("mori")
    assert name_dictionary.probe("mori")[1]


def test_dictionary_apostrophe_free_spelling_keeps_types():
    surname = frozenset({NameType.SURNAME})
    given = frozenset({NameType.GIVEN})
    dictionary = NameDictionary(
        [
            ("純也", "Jun'ya", given),
            ("順谷", "Junya", surname),
            ("森田", "Morida", surname),
        ]
    )
    assert dictionary.probe("morida") == (("morida",), surname)
    # Both records are filed under the one key "junya", whichever the
    # spelling probed.
    assert dictionary.probe("junya") == (("junya",), given | surname)
    assert dictionary.probe("Jun'ya") == (("junya",), given | surname)
    assert dictionary.probe("Jun-ya") == (("junya",), given | surname)
    assert dictionary.surface_readings("純也", GIVEN_TYPES) == ("Jun'ya",)
    assert dictionary.surface_readings("純也", FAMILY_TYPES) == ()


def test_match_latin_kanji_ok(name_dictionary):
    resolution = match_latin_kanji(
        PersonName("Shinsuke", "Mori"), "森信介", name_dictionary
    )
    assert resolution.status is NameStatus.OK
    assert resolution.kanji == PersonName("信介", "森")
    assert resolution.candidates == []


def test_match_latin_kanji_lengthened_vowel(name_dictionary):
    # Dictionary stores Gotou; the transcription dropped the length mark.
    resolution = match_latin_kanji(
        PersonName("Hitoshi", "Gotoh"), "後藤仁", name_dictionary
    )
    assert resolution.status is NameStatus.OK
    assert resolution.kanji == PersonName("仁", "後藤")


def test_match_latin_kanji_no_match(name_dictionary):
    resolution = match_latin_kanji(
        PersonName("Graham", "Neubig"), "ニュービッググラム", name_dictionary
    )
    assert resolution.status is NameStatus.NO_KANJI_MATCHING_FOUND
    assert resolution.kanji == PersonName("", "ニュービッググラム")


def test_match_latin_kanji_missing_latin(name_dictionary):
    resolution = match_latin_kanji(None, "菅谷正弘", name_dictionary)
    assert resolution.status is NameStatus.UNDEFINED_LATIN_MISSING
    assert resolution.latin is None


def test_match_latin_kanji_empty_kanji(name_dictionary):
    resolution = match_latin_kanji(
        PersonName("Shinsuke", "Mori"), "", name_dictionary
    )
    assert resolution.status is NameStatus.OK
    assert resolution.kanji is None

    resolution = match_latin_kanji(
        PersonName("Graham", "Neubig"), "", name_dictionary
    )
    assert resolution.status is NameStatus.NOT_FOUND_IN_DICTIONARY


def test_match_latin_kanji_self_consistency(name_dictionary):
    resolution = match_latin_kanji(
        PersonName("Takeshi", "Nakamura"), "中村武志", name_dictionary
    )
    assert resolution.status is NameStatus.OK
    readings = name_dictionary.surface_readings(resolution.kanji.family, FAMILY_TYPES)
    forms = latin_lookup_variants("Nakamura")
    assert any(reading.lower() in forms for reading in readings)


def test_abbreviated_without_a_unique_split_keeps_the_unsplit_kanji(
    name_dictionary,
):
    # No given reading of any split starts with x.
    resolution = resolve_author("X. Mori", "森信介", name_dictionary)
    assert resolution.status is NameStatus.ABBREVIATED
    assert resolution.kanji == PersonName("", "森信介")


def test_n_before_m_matches_either_spelling():
    # Traditional Hepburn writes ん as m before m too: 本間 is "Homma",
    # and the dictionary spells it "Honma".
    dictionary = NameDictionary(
        [
            ("本間", "Honma", frozenset({NameType.SURNAME})),
            ("和彦", "Kazuhiko", frozenset({NameType.MALE_GIVEN})),
        ]
    )
    resolution = resolve_author("Kazuhiko Homma", "本間和彦", dictionary)
    assert resolution.status is NameStatus.OK
    assert resolution.kanji == PersonName("和彦", "本間")


def test_abbreviated_with_unique_kanji_split(name_dictionary):
    resolution = match_latin_kanji(
        PersonName("T.", "Nakamura"), "中村武志", name_dictionary
    )
    assert resolution.status is NameStatus.POSSIBLE_NAME_ANOMALY
    assert resolution.kanji == PersonName("武志", "中村")


def test_abbreviated_without_kanji(name_dictionary):
    resolution = match_latin_kanji(PersonName("T.", "Nakamura"), "", name_dictionary)
    assert resolution.status is NameStatus.ABBREVIATED


def test_kanji_candidates_twenty(name_dictionary):
    candidates = kanji_name_candidates("菅谷正弘", name_dictionary)
    assert len(candidates) == 20
    rendered = [c.display() for c in candidates]
    assert rendered[:4] == [
        "Shougu Sugatani",
        "Seihiro Sugatani",
        "Tadahiro Sugatani",
        "Masahiro Sugatani",
    ]
    assert rendered[4] == "Shougu Suganoya"
    families = {c.family for c in candidates}
    givens = {c.given for c in candidates}
    assert len(candidates) == len(families) * len(givens)
    assert len(rendered) == len(set(rendered))


def test_kanji_candidates_no_hit(name_dictionary):
    assert kanji_name_candidates("ニュービッグ", name_dictionary) == []


def test_kanji_candidates_multiple_splits():
    surname = frozenset({NameType.SURNAME})
    given = frozenset({NameType.GIVEN})
    # Both 山 | 田太 and 山田 | 太 are accepted splits for 山田太.
    dictionary = NameDictionary(
        [
            ("山", "Yama", surname),
            ("田太", "Data", given),
            ("山田", "Yamada", surname),
            ("山田", "Yamata", surname),
            ("太", "Futoshi", given),
            ("太", "Hiroshi", given),
        ]
    )
    candidates = kanji_name_candidates("山田太", dictionary)
    rendered = [c.display() for c in candidates]
    # 1x1 combinations from the first split, then 2x2 from the second.
    assert rendered == [
        "Data Yama",
        "Futoshi Yamada",
        "Hiroshi Yamada",
        "Futoshi Yamata",
        "Hiroshi Yamata",
    ]
    assert len(rendered) == len(set(rendered))


def test_kanji_candidates_single_combination(name_dictionary):
    candidates = kanji_name_candidates("森信介", name_dictionary)
    assert candidates == [PersonName("Shinsuke", "Mori")]


def test_split_with_only_a_leading_surname_puts_the_family_first(name_dictionary):
    # "Xyzzy" has no type; the known surname still fixes the orientation.
    person, hint = split_latin_full_name("Mori Xyzzy", name_dictionary)
    assert person == PersonName("Xyzzy", "Mori")
    assert hint is NameStatus.NOT_FOUND_IN_DICTIONARY


def test_resolve_author_full_pipeline(name_dictionary):
    resolution = resolve_author("Shinsuke Mori", "森信介", name_dictionary)
    assert resolution.status is NameStatus.OK
    assert resolution.latin == PersonName("Shinsuke", "Mori")
    assert resolution.kanji == PersonName("信介", "森")


@pytest.mark.parametrize("latin", ["Shin'ichi Mori", "Shin-ichi Mori", "Shinichi Mori"])
def test_resolve_author_finds_an_apostrophe_reading_in_any_spelling(
    name_dictionary, latin
):
    # The dictionary reads 真一 as Shin'ichi; each spelling probes the
    # key "shinichi", which is that reading's key too.
    resolution = resolve_author(latin, "森真一", name_dictionary)
    assert resolution.status is NameStatus.OK
    assert resolution.kanji == PersonName("真一", "森")


@pytest.mark.parametrize("written", ["Shin'ichi", "Shin-ichi", "Shinichi"])
@pytest.mark.parametrize("stored", ["Shin'ichi", "Shin-ichi", "Shinichi"])
def test_separators_are_optional_in_the_dictionary_and_the_author(stored, written):
    dictionary = NameDictionary(
        [
            ("森", "Mori", frozenset({NameType.SURNAME})),
            ("真一", stored, frozenset({NameType.MALE_GIVEN})),
        ]
    )
    resolution = resolve_author(f"{written} Mori", "森真一", dictionary)
    assert resolution.status is NameStatus.OK
    assert resolution.kanji == PersonName("真一", "森")


def test_a_length_h_before_a_separator_marks_a_long_vowel():
    dictionary = NameDictionary([("浩二", "Kouji", frozenset({NameType.MALE_GIVEN}))])
    assert dictionary.probe("Koh-ji") == (("kouji",), frozenset({NameType.MALE_GIVEN}))
    assert dictionary.probe("Koh-ji") == dictionary.probe("Kohji")


def test_resolve_author_bad_quality_sticks(name_dictionary):
    resolution = resolve_author("NobukazuYOSHIOKA", "吉岡信和", name_dictionary)
    assert resolution.status is NameStatus.BAD_DATA_QUALITY
    assert resolution.kanji == PersonName("信和", "吉岡")


def test_resolve_author_fullwidth_latin(name_dictionary):
    resolution = resolve_author("Ｓｈｉｎｓｕｋｅ Ｍｏｒｉ", "森信介", name_dictionary)
    assert resolution.status is NameStatus.OK


def test_resolve_author_missing_latin_gets_candidates(name_dictionary):
    resolution = resolve_author(None, "菅谷正弘", name_dictionary)
    assert resolution.status is NameStatus.UNDEFINED_LATIN_MISSING
    assert len(resolution.candidates) == 20


def test_resolve_author_unusable_latin_field(name_dictionary):
    # Nothing survives normalization: treated like a missing Latin name.
    resolution = resolve_author("★★★", "菅谷正弘", name_dictionary)
    assert resolution.status is NameStatus.UNDEFINED_LATIN_MISSING
    assert resolution.candidates
    # ASCII junk survives and is flagged instead.
    resolution = resolve_author("***", "森信介", name_dictionary)
    assert resolution.status is NameStatus.NAME_ANOMALY


@pytest.mark.parametrize("raw", ["Петров, Иван, 1950-", "김철수 (1)"])
def test_resolve_author_keeps_another_script_with_digits_and_punctuation(
    name_dictionary, raw
):
    # Letters, none of them Latin: the digits and punctuation beside them
    # are no Latin name, and the field stands as written.
    resolution = resolve_author(raw, None, name_dictionary)
    assert resolution.latin is None
    assert resolution.kanji == PersonName("", raw)
    assert resolution.status is NameStatus.UNDEFINED_LATIN_MISSING


def test_resolve_author_candidates_only_when_latin_missing(name_dictionary):
    resolution = resolve_author("Shinsuke Mori", "森信介", name_dictionary)
    assert resolution.candidates == []


def test_unclassified_names_monotonic(name_dictionary, name_dictionary_with_u):
    # Ib is unclassified; with u-records present it can serve as a reading.
    corpus = [
        ("Shinsuke Mori", "森信介"),
        ("Graham Neubig", "ニュービッググラム"),
        ("Yuuta Tsuboi", "坪井祐太"),
        ("Ib Mori", "森イブ"),
        ("Takeshi Nakamura", "中村武志"),
    ]

    def ok_count(dictionary):
        return sum(
            1
            for latin, kanji in corpus
            if resolve_author(latin, kanji, dictionary).status is NameStatus.OK
        )

    without_u = ok_count(name_dictionary)
    with_u = ok_count(name_dictionary_with_u)
    assert with_u >= without_u
    assert with_u == without_u + 1  # the Ib case flips to ok


def test_resolution_is_deterministic(name_dictionary):
    first = resolve_author("Shinsuke Mori", "森信介", name_dictionary)
    second = resolve_author("Shinsuke Mori", "森信介", name_dictionary)
    assert first == second


def test_resolution_invariants_over_mock_corpus(name_dictionary):
    from jpbib.oai import harvest
    from mockrepo import build_provider

    provider = build_provider()
    for record, publication in harvest(
        "http://example.org/oai", "junii2", "list", fetch=provider.fetch
    ):
        if publication is None:
            continue
        for latin_raw, kanji_raw in publication.creators:
            resolution = resolve_author(latin_raw, kanji_raw, name_dictionary)
            if resolution.status is NameStatus.OK:
                assert resolution.latin is not None
                if kanji_raw:
                    assert resolution.kanji is not None
                    assert resolution.kanji.given and resolution.kanji.family
            if resolution.candidates:
                assert resolution.latin is None


def test_probe_forms_past_the_cap():
    # Ten expandable vowel sites: only the input and the fully doubled
    # spelling are probed.
    assert latin_lookup_variants("Aoyamakasamatanaka") == {
        "aoyamakasamatanaka",
        "aaooyaamaakaasaamaataanaakaa",
    }
    # The length-h site doubles to "oo", not "ou".
    assert latin_lookup_variants("Ohtakasamatanakaya") == {
        "ohtakasamatanakaya",
        "otakasamatanakaya",
        "ootaakaasaamaataanaakaayaa",
    }


def test_split_finds_a_name_past_the_cap():
    dictionary = NameDictionary(
        [
            ("青山", "Aaooyaamaakaasaamaataanaakaa", frozenset({NameType.SURNAME})),
            ("太郎", "Taroo", frozenset({NameType.GIVEN})),
        ]
    )
    person, hint = split_latin_full_name("Taro Aoyamakasamatanaka", dictionary)
    assert person == PersonName("Taro", "Aoyamakasamatanaka")
    assert hint is NameStatus.OK


# Short spellings over few letters, so that records often share a Latin
# form, with and without separators, in either case.
_latin = st.text(alphabet="aAk'-", min_size=1, max_size=3)
_surfaces = ["森", "田", "森田"]
_rows = st.lists(
    st.tuples(
        st.sampled_from(_surfaces),
        _latin,
        st.frozensets(st.sampled_from(list(NameType)), min_size=1),
    ),
    max_size=8,
)


def check_indexes_against_brute_force(dictionary, rows, probe):
    """``dictionary``, built from the (surface, latin, types) ``rows``,
    answers ``probe`` and each row's spellings as a scan of ``rows`` does."""
    probes = [probe] + [
        spelling
        for _, latin, _ in rows
        for spelling in (latin, latin.replace("'", "").upper())
    ]
    for part in probes:
        # The type index holds each record under its spelling key; probe
        # reads it for every spelling variant of the part.
        forms = latin_lookup_variants(part)
        expected = frozenset().union(
            *(types for _, latin, types in rows if spelling_key(latin) in forms)
        )
        assert dictionary.probe(part)[1] == expected
    for surface in _surfaces:
        for kind in (FAMILY_TYPES, GIVEN_TYPES):
            expected = []
            for row_surface, latin, types in rows:
                if row_surface == surface and types & kind and latin not in expected:
                    expected.append(latin)
            assert dictionary.surface_readings(surface, kind) == tuple(expected)


@settings(max_examples=300, deadline=None)
@given(_rows, _latin)
def test_dictionary_indexes_against_brute_force(rows, probe):
    check_indexes_against_brute_force(NameDictionary(rows), rows, probe)


@pytest.fixture(scope="module")
def names_store(tmp_path_factory):
    config = Config(base_dir=str(tmp_path_factory.mktemp("names")), db_name="names")
    with SqliteStore(config) as store:
        yield store


# Records as -e stores them: readings or none, separators, a Latin form
# whose lowercase is longer ("İ".lower() is two characters), surfaces shared
# by several records with overlapping types, and any type combination,
# the empty one included.
_stored_records = st.lists(
    st.builds(
        NameRecord,
        surface=st.sampled_from(_surfaces),
        reading=st.sampled_from([None, "もり", "た"]),
        latin=st.text(alphabet="aAk'-İ", min_size=1, max_size=3),
        types=st.sampled_from(list(TYPE_COMBINATIONS)),
    ),
    max_size=8,
)
_every_combination = [
    NameRecord("森", None, latin, types)
    for latin, types in zip(
        ["Mori", "mori", "Mo'ri", "İmori", "MORİ", "Ta", "ta", "Ta'a"] * 4,
        TYPE_COMBINATIONS,
    )
]


@settings(max_examples=300, deadline=None)
@example(_every_combination, "mori")
@given(_stored_records, st.text(alphabet="aAk'-İ", min_size=1, max_size=3))
def test_dictionary_from_the_store_indexes_against_brute_force(
    names_store, records, probe
):
    # The path -h takes: the records go in as -e stores them and come back
    # as the store's (surface, latin, types) rows.
    names_store.replace_names(records)
    rows = list(names_store.load_name_records())
    assert rows == [(r.surface, r.latin, r.types) for r in records]
    assert all(types is TYPE_COMBINATIONS[types] for _, _, types in rows)
    dictionary = NameDictionary(names_store.load_name_records())
    check_indexes_against_brute_force(dictionary, rows, probe)


@pytest.mark.parametrize(
    "latin, kanji",
    [
        ("Sinsuke TUBOI", "坪井信介"),
        ("SINSUKE TUBOI", "坪井信介"),
        ("TUBOI, Sinsuke", "坪井信介"),
        ("TAKESI Nakamura", "中村武志"),
    ],
)
def test_resolve_author_all_caps_kunrei(name_dictionary, latin, kanji):
    # Kunrei spellings convert whatever their case, as "Sinsuke Tuboi" does.
    assert resolve_author(latin, kanji, name_dictionary).status is NameStatus.OK


def test_each_part_is_expanded_once_per_dictionary(name_records, monkeypatch):
    expanded = []

    def counting(name):
        expanded.append(name)
        return latin_lookup_variants(name)

    monkeypatch.setattr("jpbib.matching.latin_lookup_variants", counting)
    rows = [(r.surface, r.latin, r.types) for r in name_records]
    dictionary = NameDictionary(rows)
    for _ in range(10):
        resolution = resolve_author("Shinsuke Mori", "森信介", dictionary)
        assert resolution.status is NameStatus.OK
    assert sorted(expanded) == ["mori", "shinsuke"]
    # No cache outlives its dictionary: a new one expands the parts again.
    resolve_author("Shinsuke Mori", "森信介", NameDictionary(rows))
    assert sorted(expanded) == ["mori", "mori", "shinsuke", "shinsuke"]


# Kunrei and Hepburn syllables, length marks, separators and m/n sites;
# ten syllables can pass VOWEL_SITE_CAP.
_syllables = st.sampled_from(
    ["a", "i", "e", "o", "ka", "si", "tu", "hu", "zi", "sya", "tyo", "ou", "oh",
     "n", "mba", "'", "-", "aiueo"]
)


@st.composite
def _mixed_case_parts(draw):
    text = "".join(draw(st.lists(_syllables, min_size=1, max_size=10)))
    upper = draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    return "".join(ch.upper() if up else ch for ch, up in zip(text, upper))


@st.composite
def _probe_scenarios(draw):
    # Name parts, and records whose Latin forms are often probe forms of
    # those parts, in any case, with or without an inserted separator.
    parts = draw(st.lists(_mixed_case_parts(), min_size=1, max_size=3))
    pool = sorted(set().union(*map(latin_lookup_variants, parts)))
    records = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            latin = draw(st.sampled_from(pool))
            if draw(st.booleans()):
                latin = latin.upper()
            if len(latin) > 1 and draw(st.booleans()):
                cut = draw(st.integers(1, len(latin) - 1))
                latin = latin[:cut] + draw(st.sampled_from("'-")) + latin[cut:]
        else:
            latin = draw(_mixed_case_parts())
        records.append(
            (
                draw(st.sampled_from(["森", "田", "森田", "信介"])),
                latin,
                draw(st.frozensets(st.sampled_from(list(NameType)), min_size=1)),
            )
        )
    return parts, records


@settings(max_examples=200, deadline=None)
@given(_probe_scenarios())
def test_probe_memo_against_brute_force(scenario):
    parts, records = scenario
    dictionary = NameDictionary(records)
    for part in parts + [part.swapcase() for part in parts]:
        forms = latin_lookup_variants(part)  # probing ignores case
        known: set[str] = set()
        types: frozenset[NameType] = frozenset()
        for _, latin, record_types in records:
            if spelling_key(latin) in forms:
                known.add(spelling_key(latin))
                types |= record_types
        probed_forms, probed_types = dictionary.probe(part)
        assert sorted(probed_forms) == sorted(known)
        assert probed_types == types


@settings(max_examples=100, deadline=None)
@given(_probe_scenarios(), st.data())
def test_shared_dictionary_resolves_like_a_fresh_one(scenario, data):
    parts, records = scenario
    names = st.sampled_from(parts)
    latin = st.one_of(
        st.none(),
        names,
        st.builds(lambda a, b: f"{a} {b}", names, names),
        st.builds(lambda a, b: f"{a}, {b}", names, names),
    )
    kanji = st.lists(st.sampled_from(["森", "田", "信介"]), max_size=3).map("".join)
    authors = data.draw(st.lists(st.tuples(latin, kanji), min_size=1, max_size=4))
    sequence = data.draw(st.permutations(authors * 3))
    shared = NameDictionary(records)
    assert [resolve_author(a, k, shared) for a, k in sequence] == [
        resolve_author(a, k, NameDictionary(records)) for a, k in sequence
    ]
