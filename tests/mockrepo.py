"""Deterministic mock repository used across the test suite.

250 records over ids 1..251 (id 137 is a gap), the last five deleted.
Fixed ids carry special cases; everything else is filler built from the
name-dictionary fixture so most authors resolve cleanly.
"""

from jpbib.oai_mock import MockDataProvider, MockRecord, junii2_payload

GOLDEN_ID = 161
ABBREVIATED_ID = 10
NO_LATIN_ID = 20
FUSED_NAME_ID = 30
DEDUP_ID = 40
ENGLISH_ONLY_ID = 50
MALFORMED_ID = 60
FULLWIDTH_ID = 70

ALL_IDS = [n for n in range(1, 252) if n != 137]
DELETED_IDS = {247, 248, 249, 250, 251}

_FILLER_AUTHORS = [
    ("Shinsuke Mori", "森信介"),
    ("Yuuta Tsuboi", "坪井祐太"),
    ("Takeshi Nakamura", "中村武志"),
    ("Kenji Toda", "戸田健司"),
    ("Hitoshi Gotoh", "後藤仁"),
    ("Shin'ichi Kanbe", "神戸真一"),
    ("Akira Kambe", "神戸あきら"),
    ("Midori Ohta", "大田みどり"),
]
_TYPES = [
    "Journal Article",
    "Technical Report",
    "Conference Paper",
    "Departmental Bulletin Paper",
    "Article",
]


def _creators(pairs) -> list[str]:
    flat = []
    for latin, kanji in pairs:
        if kanji:
            flat.append(kanji)
        if latin:
            flat.append(latin)
    return flat


def _golden_payload() -> str:
    return junii2_payload(
        titles=[
            ("点予測による自動単語分割", "ja"),
            ("A Pointwise Approach to Automatic Word Segmentation", "en"),
        ],
        creators=_creators(
            [
                ("Shinsuke Mori", "森信介"),
                ("Graham Neubig", "ニュービッググラム"),
                ("Yuuta Tsuboi", "坪井祐太"),
            ]
        ),
        publication_type="Journal Article",
        date="2011-10-15",
        volume="52",
        issue="10",
        spage="2944",
        epage="2952",
        language="jpn",
        uri="http://id.nii.ac.jp/1001/00078161/",
    )


def _special_payload(number: int) -> str | None:
    if number == GOLDEN_ID:
        return _golden_payload()
    if number == ABBREVIATED_ID:
        return junii2_payload(
            titles=[("略語処理の研究", "ja"), ("A Study of Abbreviation Handling", "en")],
            creators=_creators([("T. Nakamura", "中村武志")]),
            publication_type="Journal Article",
            date="2010-04-15",
            volume="51",
            issue="4",
            spage="1",
            epage="8",
        )
    if number == NO_LATIN_ID:
        return junii2_payload(
            titles=[("読み方の研究", "ja")],
            creators=["菅谷正弘"],
            publication_type="Technical Report",
            date="2009-06-15",
            volume="50",
            issue="6",
        )
    if number == FUSED_NAME_ID:
        return junii2_payload(
            titles=[("結合名の研究", "ja"), ("A Study of Fused Names", "en")],
            creators=_creators([("NobukazuYOSHIOKA", "吉岡信和")]),
            publication_type="Conference Paper",
            date="2008-09-15",
            volume="49",
            issue="9",
            spage="11",
            epage="19",
        )
    if number == DEDUP_ID:
        return junii2_payload(
            titles=[("A Study on Duplicate Detection in Bibliographies", "en")],
            creators=["Hiroshi Tanaka", "Yoko Suzuki"],
            publication_type="Journal Article",
            date="2011-01-15",
            volume="12",
            issue="1",
            spage="1",
            epage="12",
            language="eng",
        )
    if number == ENGLISH_ONLY_ID:
        return junii2_payload(
            titles=[("Pointwise Methods for Sequence Labeling", "en")],
            creators=["Graham Neubig"],
            publication_type="Article",
            date="2012-02-15",
            volume="3",
            issue="2",
            language="eng",
        )
    if number == MALFORMED_ID:
        return junii2_payload(
            titles=[],
            creators=_creators([("Shinsuke Mori", "森信介")]),
            publication_type="Journal Article",
            date="2011-03-15",
        )
    if number == FULLWIDTH_ID:
        return junii2_payload(
            titles=[("全角文字の研究", "ja"), ("A Study of Fullwidth Characters", "en")],
            creators=_creators([("Ｓｈｉｎｓｕｋｅ Ｍｏｒｉ", "森信介")]),
            publication_type="Journal Article",
            date="2011-07-15",
            volume="52",
            issue="7",
            spage="100",
            epage="108",
        )
    return None


def _filler_payload(number: int) -> str:
    latin, kanji = _FILLER_AUTHORS[number % len(_FILLER_AUTHORS)]
    second = _FILLER_AUTHORS[(number + 3) % len(_FILLER_AUTHORS)]
    pairs = [(latin, kanji)]
    if number % 2 == 0:
        pairs.append(second)
    return junii2_payload(
        titles=[
            (f"自動処理の研究 {number}", "ja"),
            (f"Automatic Processing Study {number}", "en"),
        ],
        creators=_creators(pairs),
        publication_type=_TYPES[number % len(_TYPES)],
        date=f"2011-{1 + number % 12:02d}-15",
        volume=str(50 + number % 3),
        issue=str(1 + number % 4),
        spage=str(number),
        epage=str(number + 7),
        language="jpn",
    )


def build_records() -> list[MockRecord]:
    records = []
    for number in ALL_IDS:
        if number in DELETED_IDS:
            records.append(MockRecord(number, deleted=True))
            continue
        payload = _special_payload(number) or _filler_payload(number)
        records.append(MockRecord(number, payload=payload))
    return records


def build_provider(page_size: int = 100) -> MockDataProvider:
    return MockDataProvider(build_records(), page_size=page_size)


def repeating_first_page(provider: MockDataProvider, limit: int = 10):
    """A fetch that answers every request with the provider's first
    ListRecords page, resumption token included.  It raises after
    ``limit`` calls, so a harvest that never stops fails instead."""
    first = provider.fetch("http://mock/oai?verb=ListRecords&metadataPrefix=junii2")
    calls = []

    def fetch(url: str) -> bytes:
        calls.append(url)
        if len(calls) > limit:
            raise RuntimeError(f"still fetching after {limit} pages")
        return first

    return fetch
