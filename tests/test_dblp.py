"""Corpus XML parsing, coauthor edges and dedup queries."""

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
    CoauthorEdge,
    CorpusPublication,
    CorpusStore,
    TokenVocabulary,
    common_coauthors,
    find_publication,
    parse_corpus,
)
from jpbib.similarity import MatchConfig, levenshtein, names_match

FIXTURE = Path(__file__).parent / "fixtures" / "corpus_fixture.xml"


def fresh_corpus():
    with open(FIXTURE, "rb") as handle:
        return parse_corpus(handle)


@pytest.fixture(scope="module")
def corpus():
    return fresh_corpus()


INDEXES = {"by_key", "coauthors"}


def test_parse_builds_no_index():
    store, _ = fresh_corpus()
    assert not INDEXES & set(vars(store))


def test_find_publication_builds_no_index():
    # A parsed corpus answers title lookups by a scan of its list.
    store, _ = fresh_corpus()
    assert find_publication("Further Normalization", ["E. F. Codd"], store) is None
    assert not INDEXES & set(vars(store))


def test_codd_record_fields(corpus):
    store, _ = corpus
    codd = store.by_key["persons/Codd71a"]
    assert codd.authors == ("E. F. Codd",)
    assert codd.title == "Further Normalization of the Data Base Relational Model."
    assert codd.journal == "IBM Research Report, San Jose, California"
    assert codd.volume == "RJ909"
    assert codd.year == 1971
    assert codd.pages is None


def test_named_entity_decoded(corpus):
    store, _ = corpus
    tresch = store.by_key["persons/Tresch96"]
    assert "ETH Zürich" in tresch.journal


def test_surrogate_ids_follow_document_order(corpus):
    store, _ = corpus
    assert [p.id for p in store.publications] == list(
        range(1, len(store.publications) + 1)
    )


def test_www_records_skipped(corpus):
    store, _ = corpus
    assert "homepages/m/AtsuyukiMorishima" not in store.by_key
    assert all("Home Page" != p.title for p in store.publications)


def test_edge_counts(corpus):
    store, edges = corpus
    per_publication = {}
    for edge in edges:
        per_publication[edge.publication_id] = (
            per_publication.get(edge.publication_id, 0) + 1
        )
    for publication in store.publications:
        n = len(publication.authors)
        assert per_publication.get(publication.id, 0) == n * (n - 1) // 2


def test_single_author_publication_has_no_edges(corpus):
    store, edges = corpus
    codd = store.by_key["persons/Codd71a"]
    assert all(edge.publication_id != codd.id for edge in edges)


def test_edges_resolve_to_their_publication(corpus):
    store, edges = corpus
    by_id = {p.id: p for p in store.publications}
    for edge in edges:
        publication = by_id[edge.publication_id]
        assert edge.author_a in publication.authors
        assert edge.author_b in publication.authors
        assert edge.author_a != edge.author_b


def test_adjacency_skips_repeated_and_single_authors():
    xml = (
        b'<?xml version="1.0" encoding="ISO-8859-1"?>\n<dblp>\n'
        b'<article key="a/1"><author>Ann</author><author>Bo</author>'
        b"<author>Ann</author><title>One</title></article>\n"
        b'<article key="a/2"><author>Cy</author><title>Two</title></article>\n'
        b"</dblp>\n"
    )
    store, edges = parse_corpus(io.BytesIO(xml))
    assert store.coauthors == {"Ann": {"Bo"}, "Bo": {"Ann"}}
    assert edges == [CoauthorEdge("Ann", "Bo", 1), CoauthorEdge("Bo", "Ann", 1)]


def test_entity_split_across_chunks(corpus):
    data = FIXTURE.read_bytes()
    for size in (1, 7):
        with patch.object(dblp, "BLOCK_SIZE", size):
            store, edges = parse_corpus(io.BytesIO(data))
        assert store.publications == corpus[0].publications
        assert edges == corpus[1]


def test_year_must_be_decimal():
    # "&sup2;" is a digit but no decimal, so int() would reject it.
    xml = (
        b'<?xml version="1.0" encoding="ISO-8859-1"?>\n<dblp>\n'
        b'<article key="y/1"><title>One</title><year>&sup2;</year></article>\n'
        b'<article key="y/2"><title>Two</title><year>&#65298;&#65296;&#65296;&#65297;'
        b"</year></article>\n"
        b"</dblp>\n"
    )
    store, _ = parse_corpus(io.BytesIO(xml))
    assert [p.year for p in store.publications] == [None, 2001]


def test_unknown_record_type_warns(caplog):
    xml = (
        b'<?xml version="1.0" encoding="ISO-8859-1"?>\n<dblp>\n'
        b'<gadget key="x/y"><title>Thing</title></gadget>\n'
        b"</dblp>\n"
    )
    with caplog.at_level(logging.WARNING, logger="jpbib.dblp"):
        store, edges = parse_corpus(io.BytesIO(xml))
    assert store.publications == []
    assert any("gadget" in message for message in caplog.messages)


def test_parse_is_deterministic():
    with open(FIXTURE, "rb") as handle:
        first_store, first_edges = parse_corpus(handle)
    with open(FIXTURE, "rb") as handle:
        second_store, second_edges = parse_corpus(handle)
    assert first_store.publications == second_store.publications
    assert first_edges == second_edges


def test_find_publication_positive(corpus):
    store, _ = corpus
    key = find_publication(
        "A Study on Duplicate Detection in Bibliographies",
        ["Hiroshi Tanaka"],
        store,
    )
    assert key == "journals/mock/TanakaSuzuki11"


def test_find_publication_title_without_shared_author(corpus):
    store, _ = corpus
    assert (
        find_publication(
            "A Study on Duplicate Detection in Bibliographies",
            ["Somebody Else"],
            store,
        )
        is None
    )


def test_find_publication_author_without_title(corpus):
    store, _ = corpus
    assert (
        find_publication("A Completely Different Title", ["Hiroshi Tanaka"], store)
        is None
    )


def test_find_publication_self_lookup(corpus):
    store, _ = corpus
    for publication in store.publications:
        if not publication.authors:
            continue
        assert (
            find_publication(publication.title, list(publication.authors), store)
            == publication.key
        )


def test_common_coauthors(corpus):
    store, _ = corpus
    cfg = MatchConfig()
    result = common_coauthors(
        ["Shinsuke Mori", "Graham Neubig", "Yuuta Tsuboi"], store.coauthors, cfg
    )
    assert result == ["Masato Mimura"]


def test_common_coauthors_single_input(corpus):
    store, _ = corpus
    assert common_coauthors(["Shinsuke Mori"], store.coauthors) == []


def test_common_coauthors_no_shared_third_party(corpus):
    store, _ = corpus
    assert common_coauthors(["E. F. Codd", "Markus Tresch"], store.coauthors) == []


def test_common_coauthors_at_match_threshold_zero_is_empty(corpus):
    # Every corpus name matches the input authors themselves.
    store, _ = corpus
    authors = ["Shinsuke Mori", "Graham Neubig", "Yuuta Tsuboi"]
    assert common_coauthors(authors, store.coauthors) == ["Masato Mimura"]
    zero = MatchConfig(match_threshold=0.0)
    assert common_coauthors(authors, store.coauthors, zero) == []


def test_common_coauthors_builds_the_adjacency_and_its_vocabulary():
    store, _ = fresh_corpus()
    common_coauthors(["Shinsuke Mori", "Graham Neubig"], store.coauthors)
    assert INDEXES & set(vars(store)) == {"coauthors"}
    assert set(vars(store.coauthors)) == {"tokens"}


def store_of(author_lists) -> CorpusStore:
    return CorpusStore(
        CorpusPublication(id=n, key=f"k/{n}", authors=tuple(authors), title="")
        for n, authors in enumerate(author_lists, start=1)
    )


def scan_common_coauthors(authors, store, cfg):
    """The reference: compare each author with every adjacency name."""
    counts: dict[str, int] = {}
    for author in dict.fromkeys(authors):
        neighbourhood: set[str] = set()
        for name, coauthors in store.coauthors.items():
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
    store = store_of(author_lists)
    assert common_coauthors(authors, store.coauthors, cfg) == scan_common_coauthors(
        authors, store, cfg
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


def test_common_coauthors_compares_only_candidates(monkeypatch):
    # Tokens of doubled letters: two of them differ in at least two places.
    letters = "abcdefghijklmnopqrstuvwxyz"
    far = ["".join(2 * letters[n // 26**i % 26] for i in range(2)) for n in range(400)]
    store = store_of(zip(far, far[1:]))
    calls = []

    def counting(a, b, cfg):
        calls.append((a, b))
        return names_match(a, b, cfg)

    monkeypatch.setattr(dblp, "names_match", counting)
    assert common_coauthors([far[10], far[12]], store.coauthors) == [far[11]]
    assert len(store.coauthors) == len(far)
    assert len(calls) < len(far) // 10


def test_malformed_xml_raises_positioned_error():
    import xml.etree.ElementTree as ET

    xml = b'<?xml version="1.0"?>\n<dblp>\n<article key="x">\n</dblp>\n'
    with pytest.raises(ET.ParseError) as info:
        parse_corpus(io.BytesIO(xml))
    assert info.value.position is not None


def test_streaming_parse_of_generated_corpus():
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
        store, edges = parse_corpus(io.BytesIO(b"".join(generate())))
    assert len(store.publications) == 2000
    assert len(edges) == 2000


def test_fuzzy_title_normalization(corpus):
    store, _ = corpus
    key = find_publication(
        "  a study ON duplicate detection in bibliographies. ",
        ["Yoko Suzuki"],
        store,
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

        year = text("year")
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
                year=int(year) if year and year.isdecimal() else None,
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
    assert corpus[0].publications == publications


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
