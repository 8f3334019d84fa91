"""BHT rendering: escaping, the golden file, and concatenation."""

import html
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpbib import bht
from jpbib.bht import (
    BhtEntry,
    build_entry,
    claim_spf_path,
    concatenate,
    date_label,
    escape_non_ascii,
    export,
    remove_unclaimed,
    render_spf,
    spf_relative_path,
)
from jpbib.dblp import common_coauthors
from jpbib.matching import AuthorResolution, NameStatus, PersonName, resolve_author
from jpbib.oai import HarvestedPublication, get_record, parse_junii2
from jpbib.similarity import MatchConfig

from corpora import corpus_store
from mockrepo import GOLDEN_ID, NO_LATIN_ID, build_provider

FIXTURES = Path(__file__).parent / "fixtures"
ENDPOINT = "http://example.org/oai"


def test_escape_non_ascii():
    assert escape_non_ascii("森") == "&#x68EE;"
    assert escape_non_ascii("abc") == "abc"
    assert escape_non_ascii("é") == "&#xE9;"
    assert escape_non_ascii("a&b<c>d") == "a&amp;b&lt;c&gt;d"


def scan_escape(text: str) -> str:
    """The reference for ``escape_non_ascii``: one branch per character."""
    out = []
    for ch in text:
        code = ord(ch)
        if ch == "&":
            out.append("&amp;")
        elif ch == "<":
            out.append("&lt;")
        elif ch == ">":
            out.append("&gt;")
        elif code > 127:
            out.append(f"&#x{code:X};")
        else:
            out.append(ch)
    return "".join(out)


# Every code point, lone surrogates included, with the XML specials and
# the escaped text's own characters frequent.
_any_text = st.text(
    st.one_of(st.sampled_from("&<>#x;"), st.characters(exclude_categories=()))
)


@settings(max_examples=2000, deadline=None)
@given(_any_text)
def test_escape_non_ascii_equals_the_scan(text):
    assert escape_non_ascii(text) == scan_escape(text)


def test_escape_round_trip():
    samples = ["森信介", "点予測による自動単語分割", "a&b", "Ｋａｉ", "é ü ō"]
    for text in samples:
        assert html.unescape(escape_non_ascii(text)) == text


def test_escape_output_is_ascii():
    for text in ["ニュービッググラム", "日本語のタイトル", "mixed 混合 text"]:
        assert all(ord(ch) < 128 for ch in escape_non_ascii(text))


def test_date_label():
    assert date_label("2011-10-15") == "October 2011"
    assert date_label("2011-10") == "October 2011"
    assert date_label("2011") == "2011"
    # A date with no four-digit year is shown as given.
    assert date_label("Heisei 23") == "Heisei 23"
    assert date_label(None) is None


@pytest.fixture(scope="module")
def golden_entry(name_dictionary, tmp_path_factory):
    provider = build_provider()
    record = get_record(
        ENDPOINT, "junii2", provider.identifier(GOLDEN_ID), fetch=provider.fetch
    )
    publication = parse_junii2(record.payload, record.identifier)
    resolutions = [
        resolve_author(latin, kanji, name_dictionary)
        for latin, kanji in publication.creators
    ]
    # The common coauthors come from the store, as -h reads them.
    with open(FIXTURES / "corpus_fixture.xml", "rb") as handle:
        store = corpus_store(tmp_path_factory.mktemp("corpus"), handle)
    with store:
        coauthors = store.load_coauthors(MatchConfig())
    shared = common_coauthors(
        [r.latin.display() for r in resolutions if r.latin], coauthors
    )
    return build_entry(publication, resolutions, shared)


def test_render_golden_byte_identical(golden_entry):
    rendered = render_spf(golden_entry)
    golden = (FIXTURES / "golden_pointwise.bht").read_bytes()
    assert rendered.encode("ascii") == golden


def test_rendered_output_is_pure_ascii(golden_entry):
    rendered = render_spf(golden_entry)
    assert all(ord(ch) < 128 for ch in rendered)
    assert all(byte < 128 for byte in rendered.encode("ascii"))


def test_one_status_per_author(golden_entry):
    rendered = render_spf(golden_entry)
    assert rendered.count("<status ") == len(golden_entry.authors)
    assert rendered.count("<originalname") <= len(golden_entry.authors)


def test_render_namecandidates(name_dictionary):
    provider = build_provider()
    record = get_record(
        ENDPOINT, "junii2", provider.identifier(NO_LATIN_ID), fetch=provider.fetch
    )
    publication = parse_junii2(record.payload, record.identifier)
    resolutions = [
        resolve_author(latin, kanji, name_dictionary)
        for latin, kanji in publication.creators
    ]
    rendered = render_spf(build_entry(publication, resolutions))
    kanji_escaped = escape_non_ascii("菅谷正弘")
    assert f'<namecandidates kanji="{kanji_escaped}">' in rendered
    assert (
        "Shougu Sugatani, Seihiro Sugatani, Tadahiro Sugatani, Masahiro Sugatani, "
        "Shougu Suganoya" in rendered
    )
    assert rendered.count("</namecandidates>") == 1
    assert "<status name=" in rendered
    assert ">undefined</status>" in rendered


def test_namecandidates_keep_the_dictionary_spelling(name_dictionary):
    # Separators are dropped for lookups only: the dictionary reads 真一
    # as Shin'ichi, and so does the candidate.
    resolution = resolve_author(None, "森真一", name_dictionary)
    assert resolution.candidates == [PersonName("Shin'ichi", "Mori")]
    entry = BhtEntry(
        volume="1",
        number="2",
        date="2011-01-01",
        authors=[resolution],
        title="T",
        pages=None,
    )
    kanji = escape_non_ascii("森真一")
    rendered = render_spf(entry)
    assert f'<namecandidates kanji="{kanji}">Shin\'ichi Mori</' in rendered


def test_render_plain_entry_has_no_extension_elements():
    entry = BhtEntry(
        volume="1",
        number="2",
        date="2011-01-01",
        authors=[
            AuthorResolution(
                latin=PersonName("Jane", "Doe"),
                kanji=None,
                status=NameStatus.NOT_FOUND_IN_DICTIONARY,
            )
        ],
        title="Some Title",
        pages=None,
    )
    rendered = render_spf(entry)
    assert "<originalname" not in rendered
    assert "<namecandidates" not in rendered
    assert "<originaltitle" not in rendered
    assert "<commoncoauthors" not in rendered
    assert "<dblpkey" not in rendered
    assert rendered.count("<status ") == 1
    assert "\n0-\n" in rendered  # pages default
    assert "Some Title.\n" in rendered  # terminal period appended


def test_render_zero_authors_warns_but_renders(caplog):
    import logging

    entry = BhtEntry(
        volume="1", number=None, date=None, authors=[], title="Orphan Title"
    )
    with caplog.at_level(logging.WARNING, logger="jpbib.bht"):
        rendered = render_spf(entry)
    assert "<li>:" in rendered
    assert any("no authors" in message for message in caplog.messages)


def test_render_appends_terminal_period_only_when_needed():
    base = dict(volume=None, number=None, date=None, authors=[], pages="1-2")
    assert "Done?\n" in render_spf(BhtEntry(title="Done?", **base))
    assert "Done!\n" in render_spf(BhtEntry(title="Done!", **base))
    assert "Done.\n" in render_spf(BhtEntry(title="Done.", **base))
    assert "Done.\n" in render_spf(BhtEntry(title="Done", **base))


@pytest.mark.parametrize(
    "field, value, line",
    [
        ("volume", "12\n", "<h2>Volume 12 , Number 3, October 2011</h2>"),
        ("number", "3\r\n\t4", "<h2>Volume 12, Number 3 4, October 2011</h2>"),
        ("date", "Heisei\n 23", "<h2>Volume 12, Number 3, Heisei 23</h2>"),
        ("title", "Studies of\n  Kanji Names", "Studies of Kanji Names."),
        ("title", "Full\u3000\rwidth\u3000space", "Full width&#x3000;space."),
        ("pages", "1-\n2", "1- 2"),
        ("ee_url", "http://example.org/\r1", "<ee>http://example.org/ 1</ee>"),
        (
            "original_title",
            ("漢字\n名", "ja", "Journal\nArticle"),
            '<originaltitle lang="ja" type="Journal Article">'
            "&#x6F22;&#x5B57; &#x540D;</originaltitle>",
        ),
    ],
)
def test_render_writes_each_provider_text_on_its_line(field, value, line):
    # A whitespace run that holds a line break is one space; the list item
    # keeps its title on one line and its pages on the next.
    fields = dict(
        volume="12",
        number="3",
        date="2011-10-15",
        authors=[AuthorResolution(PersonName("Jane", "Doe"), None)],
        title="A Title",
        pages="1-2",
    )
    entry = BhtEntry(**{**fields, field: value})
    lines = render_spf(entry).split("\n")
    assert line in lines
    title = lines.index("<li>Jane Doe:") + 1
    assert lines[title].endswith(".") and "-" in lines[title + 1]


def test_spf_relative_path(golden_entry):
    provider = build_provider()
    record = get_record(
        ENDPOINT, "junii2", provider.identifier(GOLDEN_ID), fetch=provider.fetch
    )
    publication = parse_junii2(record.payload, record.identifier)
    path = spf_relative_path(publication)
    assert path.endswith(f"{GOLDEN_ID}.bht")
    assert path.startswith("journal-article")
    assert "volume-52" in path


def test_spf_relative_path_stays_under_root(tmp_path):
    publication = HarvestedPublication(
        identifier="oai:example.org:7",
        titles=[],
        creators=[],
        publication_type="Journal Article",
        volume="../../../../tmp/evil",
    )
    target = (tmp_path / spf_relative_path(publication)).resolve()
    assert target.is_relative_to(tmp_path.resolve())
    assert Path(spf_relative_path(publication)).parts == (
        "journal-article",
        "volume-tmp-evil",
        "7.bht",
    )


@pytest.mark.parametrize(
    "root, target, inside",
    [
        ("/", "/a.bht", True),
        ("/tmp/bht", "/tmp/bht/a/b.bht", True),
        ("/tmp/bht", "/tmp/bht2/x.bht", False),
        ("/tmp/bht", "/tmp/bht/../x.bht", False),
    ],
)
def test_within_holds_only_the_paths_under_the_root(root, target, inside):
    assert bht._within(root, target) is inside


def test_export_refuses_a_claimed_path_that_leaves_the_root(tmp_path, monkeypatch):
    root = tmp_path / "bht"
    root.mkdir()
    publication = HarvestedPublication("oai:example.org:1", [("T", "en")], [])
    monkeypatch.setattr(bht, "claim_spf_path", lambda *args: "../outside.bht")
    with pytest.raises(OSError, match="leaves"):
        export([(publication, [], None)], str(root))
    assert not (tmp_path / "outside.bht").exists()
    assert [p.name for p in tmp_path.rglob("*")] == ["bht"]


def test_claim_spf_path_never_shares_a_file():
    def publication(identifier: str) -> HarvestedPublication:
        return HarvestedPublication(
            identifier, [], [], publication_type="Journal Article", volume="5"
        )

    taken: set[str] = set()
    # The last two share their last 100 digits, which is all a name keeps.
    digits = "1234567890" * 10
    identifiers = (
        "oai:mock:1",
        "oai:other:1",
        "oai:mock:1",
        "OAI:Other:1",
        f"oai:mock:1{digits}",
        f"oai:mock:2{digits}",
    )
    claims = [
        claim_spf_path(publication(identifier), taken) for identifier in identifiers
    ]
    directory = Path("journal-article", "volume-5")
    assert [Path(claim) for claim in claims] == [
        directory / "1.bht",
        directory / "oai-other-1.bht",
        directory / "oai-mock-1.bht",
        directory / "oai-other-1-2.bht",
        directory / f"{digits}.bht",
        directory / f"oai-mock-2{digits[:90]}.bht",
    ]
    assert taken == set(claims)
    # A freed path is the first candidate again.
    taken.remove(claims[0])
    assert claim_spf_path(publication("oai:mock:1"), taken) == claims[0]


def test_claim_spf_path_keeps_all_bht_and_hidden_names_free():
    taken: set[str] = set()
    directory = Path("untyped", "volume-0")
    claims = [
        Path(claim_spf_path(HarvestedPublication(identifier, [], []), taken))
        for identifier in ("ALL", "oai:all", "日本", "日本")
    ]
    # all.bht is the concatenation -b writes; no name may start with a dot.
    assert claims == [
        directory / "all-2.bht",
        directory / "oai-all.bht",
        directory / "unnamed.bht",
        directory / "unnamed-2.bht",
    ]


def test_concatenate_keeps_the_part_of_an_identifier_named_all(tmp_path):
    publication = HarvestedPublication("ALL", [("Only title", "en")], [])
    relative = claim_spf_path(publication, set())
    target = tmp_path / relative
    target.parent.mkdir(parents=True)
    target.write_text("part\n")
    assert concatenate(str(tmp_path)) == 1
    assert target.read_text() == "part\n"
    assert (target.parent / "all.bht").read_text() == "part\n"


def test_concatenate(tmp_path):
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    (nested / "2.bht").write_text("two\n")
    (nested / "1.bht").write_text("one\n")
    (nested / "3.bht").write_text("three\n")
    other = tmp_path / "c"
    other.mkdir()
    (other / "x.txt").write_text("not a bht file\n")
    (other / "all.bht").write_text("left from an earlier run\n")

    written = concatenate(str(tmp_path))
    assert written == 1
    combined = (nested / "all.bht").read_text()
    assert combined == "one\ntwo\nthree\n"
    assert not (other / "all.bht").exists()
    assert (other / "x.txt").exists()
    # A directory left empty goes too, up to but not including the root.
    emptied = tmp_path / "e" / "f"
    emptied.mkdir(parents=True)
    (emptied / "all.bht").write_text("left from an earlier run\n")
    assert concatenate(str(tmp_path)) == 1
    assert not (tmp_path / "e").exists()


def test_concatenate_idempotent(tmp_path):
    directory = tmp_path / "d"
    directory.mkdir()
    (directory / "1.bht").write_text("alpha\n")
    (directory / "2.bht").write_text("beta\n")
    assert concatenate(str(tmp_path)) == 1
    first = (directory / "all.bht").read_bytes()
    assert concatenate(str(tmp_path)) == 1
    assert (directory / "all.bht").read_bytes() == first


def test_concatenate_empty_tree(tmp_path):
    assert concatenate(str(tmp_path)) == 0
    (tmp_path / "all.bht").write_text("left from an earlier run\n")
    assert concatenate(str(tmp_path)) == 0
    assert tmp_path.is_dir() and not any(tmp_path.iterdir())


def test_remove_unclaimed(tmp_path):
    for volume in ("v1", "v2", "v3"):
        (tmp_path / "t" / volume).mkdir(parents=True)
        (tmp_path / "t" / volume / "1.bht").write_text("one\n")
    (tmp_path / "t" / "v3" / "all.bht").write_text("one\n")
    remove_unclaimed(str(tmp_path), {os.path.join("t", "v1", "1.bht")})
    left = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
    assert left == ["t", "t/v1", "t/v1/1.bht", "t/v3", "t/v3/all.bht"]
    (tmp_path / "t" / "v3" / "all.bht").unlink()
    remove_unclaimed(str(tmp_path), set())
    assert tmp_path.is_dir() and not any(tmp_path.iterdir())
