"""Dictionary-file parsing and type filtering."""

import io

import pytest

from jpbib.enamdict import (
    NameRecord,
    NameType,
    filter_types,
    iter_records,
    parse_entry_line,
)

S = NameType.SURNAME
G = NameType.GIVEN
F = NameType.FEMALE_GIVEN
M = NameType.MALE_GIVEN
U = NameType.UNCLASSIFIED


def types(*values):
    return frozenset(values)


def test_parse_basic_entry():
    records, warnings = parse_entry_line("森田 [もりだ] /Morida (s)/", False)
    assert warnings == []
    assert records == [NameRecord("森田", "もりだ", "Morida", types(S))]


def test_parse_unclassified_commentary_entry():
    line = "スターウォーズ /(u) Star Wars (film)/"
    records, _ = parse_entry_line(line, False)
    assert records == []
    records, _ = parse_entry_line(line, True)
    assert records == [NameRecord("スターウォーズ", None, "Star Wars", types(U))]


def test_parse_multi_sense_line():
    line = "イブ /(f) Eve/(u) Ib/Ibu (f)/(m) Yves/"
    records, warnings = parse_entry_line(line, False)
    assert warnings == []
    assert [(r.latin, r.types) for r in records] == [
        ("Eve", types(F)),
        ("Ibu", types(F)),
        ("Yves", types(M)),
    ]
    records, _ = parse_entry_line(line, True)
    assert [(r.latin, r.types) for r in records] == [
        ("Eve", types(F)),
        ("Ib", types(U)),
        ("Ibu", types(F)),
        ("Yves", types(M)),
    ]


def test_full_person_name_type_is_dropped():
    records, _ = parse_entry_line(
        "中村武志 [なかむらたけし] /Nakamura Takeshi (h)/", False
    )
    assert records == []


def test_sense_count_bounds_record_count():
    line = "イブ /(f) Eve/(u) Ib/Ibu (f)/(m) Yves/"
    senses = line.split("/")[1:-1]
    records, _ = parse_entry_line(line, True)
    assert len(records) <= len(senses)


def test_filter_types():
    assert filter_types("s") == types(S)
    assert filter_types("film") == frozenset()
    assert filter_types("f,m") == types(F, M)
    assert filter_types("s,g") == types(S, G)
    assert filter_types("p") == frozenset()  # valid but not a person type
    assert filter_types("st") == frozenset()
    assert filter_types("u,f") == types(U, F)
    assert filter_types("") == frozenset()


def test_filter_types_rejects_foreign_characters():
    import random

    rng = random.Random(2)
    valid = ["s", "u", "g", "f", "m", ","]
    for _ in range(500):
        body = "".join(rng.choice(valid) for _ in range(rng.randrange(5)))
        poisoned = body + rng.choice("xqz9 .")
        assert filter_types(poisoned) == frozenset()


def test_missing_terminal_slash_is_salvaged():
    records, warnings = parse_entry_line("甲子太郎 [かしたろう] /Kashitarou (m)", False)
    assert [w.kind for w in warnings] == ["missing-terminal-slash"]
    assert records == [NameRecord("甲子太郎", "かしたろう", "Kashitarou", types(M))]


def test_stray_bracket_warns():
    line = "近松秋江 [ちかまつしゅうこう] /Chikamatsu Shuukou) (h)/"
    records, warnings = parse_entry_line(line, False)
    assert records == []
    assert [w.kind for w in warnings] == ["stray-bracket"]
    assert warnings[0].raw == line


def test_backslash_for_bracket_warns():
    line = "キルギス共和国 [キルギスきょうわこく\\ /(p) Kyrgyz Republic/Kirghiz Republic/"
    records, warnings = parse_entry_line(line, False)
    assert records == []
    assert any(w.kind == "stray-bracket" for w in warnings)


def parse_lines(lines, include_unclassified=False):
    """The records that ``iter_records`` yields and the warnings it reports."""
    warnings = []
    records = list(iter_records(lines, warnings.append, include_unclassified))
    return records, warnings


def test_parse_file_empty():
    assert parse_lines(io.StringIO("")) == ([], [])


def test_parse_file_deduplicates():
    stream = io.StringIO("森 [もり] /Mori (s)/\n森 [もり] /Mori (s)/\n")
    records, warnings = parse_lines(stream)
    assert len(records) == 1
    assert warnings == []


def expected_fixture_records():
    """Hand-derived record multiset for the bundled dictionary fixture."""
    return {
        ("森田", "Morida", types(S)),
        ("森", "Mori", types(S)),
        ("信介", "Shinsuke", types(G)),
        ("坪井", "Tsuboi", types(S)),
        ("祐太", "Yuuta", types(M)),
        ("中村", "Nakamura", types(S)),
        ("武志", "Takeshi", types(M)),
        ("後藤", "Gotou", types(S)),
        ("吉岡", "Yoshioka", types(S)),
        ("信和", "Nobukazu", types(M)),
        ("戸田", "Toda", types(S)),
        ("健司", "Kenji", types(M)),
        ("菅谷", "Sugatani", types(S)),
        ("菅谷", "Suganoya", types(S)),
        ("菅谷", "Sugaya", types(S)),
        ("菅谷", "Sugetani", types(S)),
        ("菅谷", "Sugenoya", types(S)),
        ("正弘", "Shougu", types(G)),
        ("正弘", "Seihiro", types(G)),
        ("正弘", "Tadahiro", types(G)),
        ("正弘", "Masahiro", types(G)),
        ("真一", "Shin'ichi", types(M)),
        ("神戸", "Kanbe", types(S)),
        ("千葉", "Chiba", types(S)),
        ("イブ", "Eve", types(F)),
        ("イブ", "Ibu", types(F)),
        ("イブ", "Yves", types(M)),
        ("あきら", "Akira", types(F, M)),
        ("純", "Jun", types(G)),
        ("甲子太郎", "Kashitarou", types(M)),
        ("みどり", "Midori", types(F)),
        ("大田", "Oota", types(S)),
        ("伊藤", "Itou", types(S)),
        ("仁", "Hitoshi", types(M)),
    }


def test_parse_file_fixture_multiset(names_fixture_path):
    with open(names_fixture_path, encoding="utf-8") as handle:
        records, warnings = parse_lines(handle)
    expected = expected_fixture_records()
    assert {(r.surface, r.latin, r.types) for r in records} == expected
    assert len(records) == len(expected)
    assert sorted(w.kind for w in warnings) == [
        "missing-terminal-slash",
        "stray-bracket",
        "stray-bracket",
    ]


def test_parse_file_fixture_with_unclassified(names_fixture_path):
    with open(names_fixture_path, encoding="utf-8") as handle:
        records, _ = parse_lines(handle, include_unclassified=True)
    by_spelling = {r.latin: r for r in records}
    assert by_spelling["Star Wars"].types == types(U)
    assert by_spelling["Ib"].types == types(U)
    assert by_spelling["Midori"].types == types(U, F)
    assert len(records) == 36


def test_record_invariants(names_fixture_path):
    with open(names_fixture_path, encoding="utf-8") as handle:
        records, _ = parse_lines(handle)
    for record in records:
        assert record.latin
        assert record.types <= types(S, G, F, M)


def test_roundtrip_single_sense_entries():
    samples = [
        ("森田 [もりだ] /Morida (s)/", NameRecord("森田", "もりだ", "Morida", types(S))),
        ("イブ /Eve (f)/", NameRecord("イブ", None, "Eve", types(F))),
        ("あきら /Akira (f,m)/", NameRecord("あきら", None, "Akira", types(F, M))),
    ]
    for line, record in samples:
        parsed, warnings = parse_entry_line(line, include_unclassified=True)
        assert warnings == []
        assert parsed == [record]


def test_malformed_line_yields_warning_only():
    records, warnings = parse_entry_line("not a dictionary line", False)
    assert records == []
    assert len(warnings) == 1
