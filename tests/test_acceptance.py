"""Acceptance suite: one test per criterion, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import string
import time
from pathlib import Path

from jpbib.bht import concatenate, render_spf
from jpbib.enamdict import iter_records
from jpbib.matching import NameStatus, detect_abbreviated, split_latin_full_name
from jpbib.oai import get_record, list_records
from jpbib.pipeline import run
from jpbib.similarity import MatchConfig, jaccard, jaccard_lev, levenshtein
from jpbib.transcription import NormalizedLatin, expand_double_vowels, strip_length_h, to_hepburn

from corpora import corpus_store, stored_edges, stored_publications
from mockrepo import ALL_IDS, build_provider
from test_bht import golden_entry  # noqa: F401  (fixture reuse)
from test_pipeline import make_config_file
from test_similarity import edit_distance_oracle
from test_transcription import HEPBURN_TABLE

FIXTURES = Path(__file__).parent / "fixtures"
ENDPOINT = "http://example.org/oai"


def _ok(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_dictionary_fixture(names_fixture_path):
    lines = names_fixture_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) >= 30

    started = time.perf_counter()
    warnings = []
    with open(names_fixture_path, encoding="utf-8") as handle:
        records = list(iter_records(handle, warnings.append))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    # Exact expected multiset, including the inconsistency warnings.
    from test_enamdict import expected_fixture_records

    expected = expected_fixture_records()
    assert {(r.surface, r.latin, r.types) for r in records} == expected
    assert len(records) == len(expected) == 34
    assert sorted(w.kind for w in warnings) == [
        "missing-terminal-slash",
        "stray-bracket",
        "stray-bracket",
    ]

    multi = "イブ /(f) Eve/(u) Ib/Ibu (f)/(m) Yves/"
    from jpbib.enamdict import parse_entry_line

    three, _ = parse_entry_line(multi, include_unclassified=False)
    four, _ = parse_entry_line(multi, include_unclassified=True)
    assert len(three) == 3
    assert len(four) == 4
    _ok(1, f"fixture of {len(lines)} lines parsed in {elapsed * 1000:.0f} ms")


def test_criterion_2_hepburn_table_and_idempotence():
    assert len(HEPBURN_TABLE) == 18
    for source, expected in HEPBURN_TABLE:
        assert to_hepburn(source) == expected
        assert to_hepburn(source.capitalize()) == expected.capitalize()

    rng = random.Random(2024)
    alphabet = string.ascii_lowercase + "STZHJYUL"
    for _ in range(10_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(14)))
        once = to_hepburn(text)
        assert to_hepburn(once) == once
    _ok(2, "18 substitutions (both cases) and 10,000-string idempotence")


def test_criterion_3_gotoh_variants():
    with_info = set(expand_double_vowels(strip_length_h("Gotoh")))
    assert with_info == {"Gotoo", "Gotou", "Gootoo", "Goutoo", "Gootou", "Goutou"}

    without_info = set(expand_double_vowels(NormalizedLatin("Goto")))
    assert without_info == {
        "Goto", "Gooto", "Gouto",
        "Gotoo", "Gotou", "Gootoo",
        "Goutoo", "Gootou", "Goutou",
    }
    _ok(3, "Gotoh expands to 6 variants with length info, 9 without")


def test_criterion_4_similarity_measures():
    assert edit_distance_oracle("kitten", "sitting") == 3
    assert levenshtein("kitten", "sitting") == 3

    rng = random.Random(42)
    alphabet = "abcdef"

    def word(limit=9):
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(limit)))

    for _ in range(10_000):
        s, t, u = word(), word(), word()
        d = levenshtein(s, t)
        assert d == levenshtein(t, s)
        assert (d == 0) == (s == t)
        assert abs(len(s) - len(t)) <= d <= max(len(s), len(t))
        assert d <= levenshtein(s, u) + levenshtein(u, t)

    cfg = MatchConfig(lev_threshold=1)
    pool = ["mori", "mouri", "ito", "itou", "oota", "ota", "kanbe", "kambe", "x"]
    for _ in range(1_000):
        s = set(rng.sample(pool, rng.randrange(len(pool))))
        t = set(rng.sample(pool, rng.randrange(len(pool))))
        assert jaccard_lev(s, t, cfg) == jaccard(s, t)
    _ok(4, "metric properties over 10,000 pairs; threshold-1 equivalence over 1,000")


def test_criterion_5_name_splitting(name_dictionary):
    person, hint = split_latin_full_name("NobukazuYOSHIOKA", name_dictionary)
    assert (person.given, person.family) == ("Nobukazu", "Yoshioka")
    assert hint is NameStatus.BAD_DATA_QUALITY
    assert detect_abbreviated("T. Nakamura")
    _ok(5, "fused-name split gives bad-data-quality, initials detected")


def test_criterion_6_mock_provider_paging():
    provider = build_provider()
    pages = []
    token = None
    while True:
        records, token = list_records(ENDPOINT, "junii2", token, fetch=provider.fetch)
        pages.append(records)
        if token is None:
            break
    assert [len(p) for p in pages] == [100, 100, 50]
    listed = {r.identifier for page in pages for r in page}
    assert listed == {provider.identifier(n) for n in ALL_IDS}
    deleted = [r for page in pages for r in page if r.deleted]
    assert len(deleted) == 5

    from jpbib.oai import harvest

    list_pubs = {
        record.identifier: pub
        for record, pub in harvest(ENDPOINT, "junii2", "list", fetch=provider.fetch)
    }
    range_pubs = {
        record.identifier: pub
        for record, pub in harvest(
            ENDPOINT, "junii2", (1, 300), fetch=provider.fetch,
            id_prefix=provider.id_prefix,
        )
    }
    assert list_pubs == range_pubs

    assert (
        get_record(ENDPOINT, "junii2", provider.identifier(137), fetch=provider.fetch)
        is None
    )
    _ok(6, "3 pages of 100/100/50, identical sets in both modes, gap handled")


def test_criterion_7_corpus_fixture(tmp_path):
    from jpbib.dblp import find_publication

    # The store that -d fills and -h reads.
    with open(FIXTURES / "corpus_fixture.xml", "rb") as handle:
        store = corpus_store(tmp_path, handle)
    with store:
        publications = stored_publications(store)
        edges = stored_edges(store)
        title = "A Study on Duplicate Detection in Bibliographies"
        tanaka = find_publication(title, ["Hiroshi Tanaka"], store)
        somebody = find_publication(title, ["Somebody Else"], store)
        another = find_publication("Another Title", ["Hiroshi Tanaka"], store)

    codd = {p.key: p for p in publications}["persons/Codd71a"]
    assert codd.authors == ("E. F. Codd",)
    assert codd.title == "Further Normalization of the Data Base Relational Model."
    assert codd.journal == "IBM Research Report, San Jose, California"
    assert codd.volume == "RJ909"
    assert codd.year == 1971

    per_publication = {}
    for _, _, publication_id in edges:
        per_publication[publication_id] = per_publication.get(publication_id, 0) + 1
    for publication in publications:
        n = len(publication.authors)
        assert per_publication.get(publication.id, 0) == n * (n - 1) // 2

    assert tanaka == "journals/mock/TanakaSuzuki11"
    assert somebody is None
    assert another is None
    _ok(7, "Codd record field-exact, edge counts n(n-1)/2, dedup rule with negatives")


def test_criterion_8_golden_file(golden_entry, tmp_path):  # noqa: F811
    rendered = render_spf(golden_entry)
    golden = (FIXTURES / "golden_pointwise.bht").read_bytes()
    assert rendered.encode("ascii") == golden
    assert "&#x68EE;,&#x4FE1;" in rendered
    assert "<commoncoauthors>Masato Mimura</commoncoauthors>" in rendered
    assert '<originaltitle lang="ja" type="Journal Article">' in rendered

    # Concatenation: idempotent and ordering-stable.
    directory = tmp_path / "spf"
    directory.mkdir()
    (directory / "b.bht").write_text("B\n")
    (directory / "a.bht").write_text("A\n")
    assert concatenate(str(tmp_path)) == 1
    first = (directory / "all.bht").read_bytes()
    assert first == b"A\nB\n"
    assert concatenate(str(tmp_path)) == 1
    assert (directory / "all.bht").read_bytes() == first
    _ok(8, "byte-identical golden file; concatenation idempotent and stable")


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    def run_all(base: Path) -> tuple[dict[str, bytes], bytes]:
        base.mkdir()
        config = make_config_file(base)
        provider = build_provider()
        status = run(["--config", str(config), "--all"], fetch=provider.fetch)
        assert status == 0
        tree = {
            str(path.relative_to(base / "bht")): path.read_bytes()
            for path in sorted((base / "bht").rglob("*.bht"))
        }
        stats = (base / "log" / "statistics.json").read_bytes()
        return tree, stats

    started = time.perf_counter()
    first_tree, first_stats = run_all(tmp_path / "one")
    second_tree, second_stats = run_all(tmp_path / "two")
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    assert first_tree == second_tree
    assert first_stats == second_stats
    assert first_tree  # something was actually produced
    assert elapsed < 30.0

    stats = json.loads(first_stats)
    assert stats["records_with_metadata"] == 245
    assert stats["deleted_records"] == 5
    _ok(9, f"two --all runs byte-identical in {elapsed:.1f} s")
