"""Corpus XML parsing, coauthor edges and dedup queries, read from the
store that -d fills."""

import io
import logging
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpbib import dblp
from jpbib.dblp import (
    CorpusPublication,
    TokenVocabulary,
    common_coauthors,
    find_publication,
)
from jpbib.similarity import MatchConfig, levenshtein, names_match

from corpora import (
    coauthor_adjacency,
    corpus_document,
    corpus_store,
    stored_edges,
    stored_publications,
)

FIXTURE = Path(__file__).parent / "fixtures" / "corpus_fixture.xml"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The fixture corpus in a store, as -d writes it."""
    with open(FIXTURE, "rb") as handle:
        store = corpus_store(tmp_path_factory.mktemp("corpus"), handle)
    with store:
        yield store


def by_key(store) -> dict[str, CorpusPublication]:
    return {publication.key: publication for publication in stored_publications(store)}


def schema(store) -> list[tuple]:
    return store.connection.execute("SELECT * FROM sqlite_master").fetchall()


def test_find_publication_builds_no_index(corpus):
    # A lookup reads the store and leaves its schema as -d wrote it.
    before = schema(corpus)
    assert find_publication("Further Normalization", ["E. F. Codd"], corpus) is None
    assert schema(corpus) == before


def test_codd_record_fields(corpus):
    codd = by_key(corpus)["persons/Codd71a"]
    assert codd.authors == ("E. F. Codd",)
    assert codd.title == "Further Normalization of the Data Base Relational Model."
    assert codd.journal == "IBM Research Report, San Jose, California"
    assert codd.volume == "RJ909"
    assert codd.year == 1971
    assert codd.pages is None


def test_named_entity_decoded(corpus):
    tresch = by_key(corpus)["persons/Tresch96"]
    assert "ETH Zürich" in tresch.journal


def test_surrogate_ids_follow_document_order(corpus):
    publications = stored_publications(corpus)
    assert [p.id for p in publications] == list(range(1, len(publications) + 1))


def test_www_records_skipped(corpus):
    assert "homepages/m/AtsuyukiMorishima" not in by_key(corpus)
    assert all("Home Page" != p.title for p in stored_publications(corpus))


def test_edge_counts(corpus):
    per_publication = {}
    for _, _, publication_id in stored_edges(corpus):
        per_publication[publication_id] = per_publication.get(publication_id, 0) + 1
    for publication in stored_publications(corpus):
        n = len(publication.authors)
        assert per_publication.get(publication.id, 0) == n * (n - 1) // 2


def test_single_author_publication_has_no_edges(corpus):
    codd = by_key(corpus)["persons/Codd71a"]
    assert all(edge[2] != codd.id for edge in stored_edges(corpus))


def test_edges_resolve_to_their_publication(corpus):
    by_id = {p.id: p for p in stored_publications(corpus)}
    for author_a, author_b, publication_id in stored_edges(corpus):
        publication = by_id[publication_id]
        assert author_a in publication.authors
        assert author_b in publication.authors
        assert author_a != author_b


def test_adjacency_skips_repeated_and_single_authors(tmp_path):
    xml = (
        b'<?xml version="1.0" encoding="ISO-8859-1"?>\n<dblp>\n'
        b'<article key="a/1"><author>Ann</author><author>Bo</author>'
        b"<author>Ann</author><title>One</title></article>\n"
        b'<article key="a/2"><author>Cy</author><title>Two</title></article>\n'
        b"</dblp>\n"
    )
    with corpus_store(tmp_path, io.BytesIO(xml)) as store:
        assert store.load_coauthors() == {"Ann": {"Bo"}, "Bo": {"Ann"}}
        assert stored_edges(store) == [("Ann", "Bo", 1), ("Bo", "Ann", 1)]


def test_entity_split_across_chunks(corpus, tmp_path):
    data = FIXTURE.read_bytes()
    for size in (1, 7):
        with patch.object(dblp, "BLOCK_SIZE", size):
            store = corpus_store(tmp_path, io.BytesIO(data), f"block{size}")
        with store:
            assert stored_publications(store) == stored_publications(corpus)
            assert stored_edges(store) == stored_edges(corpus)


def test_year_must_be_decimal(tmp_path):
    # "&sup2;" is a digit but no decimal, so int() would reject it.
    xml = (
        b'<?xml version="1.0" encoding="ISO-8859-1"?>\n<dblp>\n'
        b'<article key="y/1"><title>One</title><year>&sup2;</year></article>\n'
        b'<article key="y/2"><title>Two</title><year>&#65298;&#65296;&#65296;&#65297;'
        b"</year></article>\n"
        b"</dblp>\n"
    )
    with corpus_store(tmp_path, io.BytesIO(xml)) as store:
        assert [p.year for p in stored_publications(store)] == [None, 2001]


def test_a_year_beyond_the_int_digit_limit_is_none():
    # int() refuses a string of more than 4,300 digits with a ValueError.
    articles = "".join(
        f'<article key="y/{digits}"><year>{"9" * digits}</year></article>'
        for digits in (5000, 18)
    )
    xml = f"<dblp>{articles}</dblp>".encode()
    years = [p.year for p in dblp.iter_corpus(io.BytesIO(xml))]
    assert years == [None, 999_999_999_999_999_999]


def test_unknown_record_type_warns(caplog, tmp_path):
    xml = (
        b'<?xml version="1.0" encoding="ISO-8859-1"?>\n<dblp>\n'
        b'<gadget key="x/y"><title>Thing</title></gadget>\n'
        b"</dblp>\n"
    )
    with caplog.at_level(logging.WARNING, logger="jpbib.dblp"):
        store = corpus_store(tmp_path, io.BytesIO(xml))
    with store:
        assert stored_publications(store) == []
    assert any("gadget" in message for message in caplog.messages)


def test_parse_is_deterministic(tmp_path):
    stores = []
    for name in ("one", "two"):
        with open(FIXTURE, "rb") as handle:
            stores.append(corpus_store(tmp_path, handle, name))
    with stores[0] as first, stores[1] as second:
        assert stored_publications(first) == stored_publications(second)
        assert stored_edges(first) == stored_edges(second)


def test_find_publication_positive(corpus):
    key = find_publication(
        "A Study on Duplicate Detection in Bibliographies",
        ["Hiroshi Tanaka"],
        corpus,
    )
    assert key == "journals/mock/TanakaSuzuki11"


def test_find_publication_title_without_shared_author(corpus):
    assert (
        find_publication(
            "A Study on Duplicate Detection in Bibliographies",
            ["Somebody Else"],
            corpus,
        )
        is None
    )


def test_find_publication_author_without_title(corpus):
    assert (
        find_publication("A Completely Different Title", ["Hiroshi Tanaka"], corpus)
        is None
    )


def test_find_publication_self_lookup(corpus):
    for publication in stored_publications(corpus):
        if not publication.authors:
            continue
        assert (
            find_publication(publication.title, list(publication.authors), corpus)
            == publication.key
        )


def test_common_coauthors(corpus):
    cfg = MatchConfig()
    result = common_coauthors(
        ["Shinsuke Mori", "Graham Neubig", "Yuuta Tsuboi"], corpus.load_coauthors(), cfg
    )
    assert result == ["Masato Mimura"]


def test_common_coauthors_single_input(corpus):
    assert common_coauthors(["Shinsuke Mori"], corpus.load_coauthors()) == []


def test_common_coauthors_no_shared_third_party(corpus):
    coauthors = corpus.load_coauthors()
    assert common_coauthors(["E. F. Codd", "Markus Tresch"], coauthors) == []


def test_common_coauthors_at_match_threshold_zero_is_empty(corpus):
    # Every corpus name matches the input authors themselves.
    coauthors = corpus.load_coauthors()
    authors = ["Shinsuke Mori", "Graham Neubig", "Yuuta Tsuboi"]
    assert common_coauthors(authors, coauthors) == ["Masato Mimura"]
    zero = MatchConfig(match_threshold=0.0)
    assert common_coauthors(authors, coauthors, zero) == []


def test_common_coauthors_builds_the_adjacency_and_its_vocabulary(corpus):
    coauthors = corpus.load_coauthors()
    assert not vars(coauthors)
    common_coauthors(["Shinsuke Mori", "Graham Neubig"], coauthors)
    assert set(vars(coauthors)) == {"tokens"}


def adjacency_of(author_lists):
    """The reference adjacency of one publication per author list."""
    return coauthor_adjacency(
        CorpusPublication(id=n, key=f"k/{n}", authors=tuple(authors), title="")
        for n, authors in enumerate(author_lists, start=1)
    )


def scan_common_coauthors(authors, adjacency, cfg):
    """The reference: compare each author with every adjacency name."""
    counts: dict[str, int] = {}
    for author in dict.fromkeys(authors):
        neighbourhood: set[str] = set()
        for name, coauthors in adjacency.items():
            if names_match(author, name, cfg):
                neighbourhood |= coauthors
        for neighbour in neighbourhood:
            counts[neighbour] = counts.get(neighbour, 0) + 1
    return sorted(
        name
        for name, count in counts.items()
        if count >= 2 and not any(names_match(name, a, cfg) for a in authors)
    )


# Few letters, so that many tokens are one or two edits apart; "ß" and "İ"
# grow under casefold, and whitespace gives empty and blank names.
names = st.text(alphabet="abßİS \t", max_size=9)
configs = st.builds(
    MatchConfig,
    lev_threshold=st.integers(0, 3),
    match_threshold=st.sampled_from([0.0, 0.3, 0.75, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(names, min_size=1, max_size=4), max_size=8),
    st.lists(names, max_size=4),
    configs,
)
def test_common_coauthors_equals_the_scan(author_lists, authors, cfg):
    adjacency = adjacency_of(author_lists)
    assert common_coauthors(authors, adjacency, cfg) == scan_common_coauthors(
        authors, adjacency, cfg
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(names, max_size=12), names, st.integers(0, 3))
def test_near_tokens_are_the_tokens_within_the_edit_budget(corpus_names, name, lev):
    vocabulary = TokenVocabulary(corpus_names)
    for token in set(name.casefold().split()):
        assert sorted(vocabulary.near(token, lev)) == sorted(
            other
            for other in vocabulary.names
            if other and levenshtein(token, other) < lev
        )


def test_common_coauthors_compares_only_candidates(monkeypatch, tmp_path):
    # Tokens of doubled letters: two of them differ in at least two places.
    letters = "abcdefghijklmnopqrstuvwxyz"
    far = ["".join(2 * letters[n // 26**i % 26] for i in range(2)) for n in range(400)]
    document = io.BytesIO(corpus_document(zip(far, far[1:])))
    with corpus_store(tmp_path, document) as store:
        coauthors = store.load_coauthors()
    calls = []

    def counting(a, b, cfg):
        calls.append((a, b))
        return names_match(a, b, cfg)

    monkeypatch.setattr(dblp, "names_match", counting)
    assert common_coauthors([far[10], far[12]], coauthors) == [far[11]]
    assert len(coauthors) == len(far)
    assert len(calls) < len(far) // 10


def test_malformed_xml_raises_positioned_error(tmp_path):
    xml = b'<?xml version="1.0"?>\n<dblp>\n<article key="x">\n</dblp>\n'
    with pytest.raises(ET.ParseError) as info:
        corpus_store(tmp_path, io.BytesIO(xml))
    assert info.value.position is not None


def test_streaming_parse_of_generated_corpus(tmp_path):
    def generate():
        yield b'<?xml version="1.0" encoding="ISO-8859-1"?>\n<dblp>\n'
        for n in range(2000):
            yield (
                f'<article key="gen/{n}"><author>Author {n}</author>'
                f"<author>Author {n + 1}</author>"
                f"<title>Generated Title {n}.</title><year>2000</year>"
                "</article>\n"
            ).encode("ascii")
        yield b"</dblp>\n"

    with patch.object(dblp, "BLOCK_SIZE", 4096):
        store = corpus_store(tmp_path, io.BytesIO(b"".join(generate())))
    with store:
        assert len(stored_publications(store)) == 2000
        assert len(stored_edges(store)) == 2000


def test_fuzzy_title_normalization(corpus):
    key = find_publication(
        "  a study ON duplicate detection in bibliographies. ",
        ["Yoko Suzuki"],
        corpus,
    )
    assert key == "journals/mock/TanakaSuzuki11"


# -- the streaming parser against an ElementTree reference ---------------------


def reference_corpus(data: bytes) -> tuple[list[CorpusPublication], list[str]]:
    """The publications of a whole corpus document by ``ET.fromstring``,
    after the entity rewrite, and the unknown record types it skips."""
    root = ET.fromstring(dblp._rewrite_named_entities(data))
    publications: list[CorpusPublication] = []
    unknown = []
    for record in root:
        if record.tag not in dblp.PUBLICATION_TYPES:
            if record.tag not in dblp.NON_PUBLICATION_TYPES:
                unknown.append(record.tag)
            continue

        def text(tag):
            child = record.find(tag)
            if child is None:
                return None
            return "".join(child.itertext()).strip() or None

        year = text("year") or ""
        pid = len(publications) + 1
        publications.append(
            CorpusPublication(
                id=pid,
                key=record.get("key", f"generated/{pid}"),
                authors=tuple(
                    "".join(author.itertext()).strip()
                    for author in record.findall("author")
                ),
                title=text("title") or "",
                year=int(year) if year.isdecimal() and len(year) <= 18 else None,
                journal=text("journal"),
                pages=text("pages"),
                volume=text("volume"),
            )
        )
    return publications, unknown


def test_iter_corpus_equals_the_reference_on_the_fixture(corpus):
    data = FIXTURE.read_bytes()
    publications, _ = reference_corpus(data)
    assert list(dblp.iter_corpus(io.BytesIO(data))) == publications
    assert stored_publications(corpus) == publications


def test_iter_corpus_yields_before_the_stream_ends():
    class Reader:
        """A file that returns one line per read, and fails the read after
        the second record."""

        lines = [
            b'<?xml version="1.0" encoding="ISO-8859-1"?>\n<dblp>\n',
            b'<article key="a/1"><author>Ann</author><title>One</title></article>\n',
            b'<article key="a/2"><author>Bo</author><title>Two</title></article>\n',
        ]

        def read(self, size):
            if not self.lines:
                raise AssertionError("read past the first record")
            return self.lines.pop(0)

    first = next(dblp.iter_corpus(Reader()))
    assert (first.id, first.key, first.authors) == (1, "a/1", ("Ann",))


def test_undeclared_entity_under_an_external_dtd_raises_positioned_error():
    # With an external DTD expat would drop the reference; ElementTree raises.
    xml = (
        b'<?xml version="1.0"?>\n<!DOCTYPE dblp SYSTEM "dblp.dtd">\n<dblp>\n'
        b'<article key="x"><title>a &odd_name; b</title></article>\n</dblp>\n'
    )
    with pytest.raises(ET.ParseError) as reference:
        reference_corpus(xml)
    with pytest.raises(ET.ParseError) as info:
        list(dblp.iter_corpus(io.BytesIO(xml)))
    assert info.value.position == reference.value.position == (4, 26)
    assert str(info.value) == str(reference.value)


# Latin-1 text, escaped; named entities known, unknown and built in, and
# numeric references beyond Latin-1 (fullwidth digits).
_plain = st.text(alphabet="ab Z09é\n\t&<>", max_size=5).map(
    lambda text: text.replace("&", "&amp;").replace("<", "&lt;")
)
_reference = st.sampled_from(
    ["&auml;", "&sup2;", "&eacute;", "&amp;", "&lt;", "&#65298;", "&#233;", "&bogus;"]
)
_inline = st.lists(st.one_of(_plain, _reference), max_size=3).map("".join)
_markup = st.builds(
    "<{0}>{1}</{0}>{2}".format, st.sampled_from(["i", "sub", "sup"]), _inline, _inline
)
_nested = st.builds("<sub>{0}{1}</sub>{2}".format, _inline, _markup, _inline)
_content = st.one_of(
    st.lists(st.one_of(_plain, _reference, _markup, _nested), max_size=4).map("".join),
    st.sampled_from(
        ["2001", " 1999 ", "&sup2;", "&#65298;&#65296;&#65296;&#65297;", "", "  "]
    ),
)
_child = st.builds(
    "<{0}>{1}</{0}>{2}".format,
    st.sampled_from(
        ["author", "author", "title", "year", "journal", "pages", "volume", "ee"]
    ),
    _content,
    st.sampled_from(["", "\n", " tail "]),
)
_record = st.builds(
    "<{0}{1}>{2}</{0}>\n".format,
    st.sampled_from(sorted(dblp.PUBLICATION_TYPES) + ["www", "person", "gadget"]),
    st.one_of(
        st.just(""), st.text(alphabet="ab/1", max_size=4).map(' key="{}"'.format)
    ),
    st.lists(_child, max_size=7).map("".join),
)
_document = st.lists(_record, max_size=6).map(
    lambda records: (
        '<?xml version="1.0" encoding="ISO-8859-1"?>\n<dblp>\n'
        + "".join(records)
        + "</dblp>\n"
    ).encode("latin-1")
)


def logged_warnings(function, *args):
    """``function(*args)`` and the warnings the dblp module logged meanwhile."""
    messages = []

    def warning(message, *values):
        messages.append(message % values)

    with patch.object(dblp.log, "warning", warning):
        return function(*args), messages


@settings(max_examples=200, deadline=None)
@given(_document, st.integers(1, 40))
def test_iter_corpus_equals_the_reference(data, block_size):
    (publications, unknown), entity_warnings = logged_warnings(reference_corpus, data)
    with patch.object(dblp, "BLOCK_SIZE", block_size):
        parsed, warnings = logged_warnings(list, dblp.iter_corpus(io.BytesIO(data)))
    assert parsed == publications
    skipped = [f"skipping unknown record type <{tag}>" for tag in unknown]
    assert [message for message in warnings if "record type" in message] == skipped
    assert sorted(warnings) == sorted(entity_warnings + skipped)
