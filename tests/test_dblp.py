"""Corpus XML parsing, coauthor edges and dedup queries, read from the
store that -d fills."""

import io
import logging
import re
import tracemalloc
import xml.etree.ElementTree as ET
from html.entities import name2codepoint
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
        assert store.load_coauthors(MatchConfig()) == {"Ann": {"Bo"}, "Bo": {"Ann"}}
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
    result = common_coauthors(
        ["Shinsuke Mori", "Graham Neubig", "Yuuta Tsuboi"],
        corpus.load_coauthors(MatchConfig()),
    )
    assert result == ["Masato Mimura"]


def test_common_coauthors_single_input(corpus):
    coauthors = corpus.load_coauthors(MatchConfig())
    assert common_coauthors(["Shinsuke Mori"], coauthors) == []


def test_common_coauthors_no_shared_third_party(corpus):
    coauthors = corpus.load_coauthors(MatchConfig())
    assert common_coauthors(["E. F. Codd", "Markus Tresch"], coauthors) == []


def test_common_coauthors_at_match_threshold_zero_is_empty(corpus):
    # Every corpus name matches the input authors themselves.
    authors = ["Shinsuke Mori", "Graham Neubig", "Yuuta Tsuboi"]
    coauthors = corpus.load_coauthors(MatchConfig())
    assert common_coauthors(authors, coauthors) == ["Masato Mimura"]
    zero = corpus.load_coauthors(MatchConfig(match_threshold=0.0))
    assert common_coauthors(authors, zero) == []


def test_load_coauthors_holds_its_settings_and_their_vocabulary(corpus):
    # "mory" is one edit from the corpus token "mori".
    for lev, near in [(2, ["mori"]), (1, [])]:
        cfg = MatchConfig(lev_threshold=lev)
        coauthors = corpus.load_coauthors(cfg)
        assert coauthors.cfg is cfg
        assert coauthors.tokens.near("mory") == near
        assert coauthors.tokens.near("mori") == ["mori"]


def adjacency_of(author_lists, cfg):
    """The reference adjacency of one publication per author list."""
    return coauthor_adjacency(
        (
            CorpusPublication(id=n, key=f"k/{n}", authors=tuple(authors), title="")
            for n, authors in enumerate(author_lists, start=1)
        ),
        cfg,
    )


def scan_common_coauthors(authors, adjacency, cfg):
    """The reference: compare each author with every adjacency name, and
    list no name without a token."""
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
        if count >= 2
        and name.split()
        and not any(names_match(name, a, cfg) for a in authors)
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
    adjacency = adjacency_of(author_lists, cfg)
    assert common_coauthors(authors, adjacency) == scan_common_coauthors(
        authors, adjacency, cfg
    )


# A token of up to 16 characters and corpus names made from it by up to
# five edits, so that every length the segment windows cover is reached.
letters = st.sampled_from("abßİS")
edits = st.lists(
    st.tuples(st.sampled_from("ids"), st.integers(0, 16), letters), max_size=5
)


def edited(token: str, steps) -> str:
    chars = list(token)
    for kind, position, char in steps:
        position %= len(chars) + 1
        if kind == "i":
            chars.insert(position, char)
        elif position < len(chars):
            if kind == "d":
                del chars[position]
            else:
                chars[position] = char
    return "".join(chars)


@settings(max_examples=500, deadline=None)
@given(
    st.text(letters, max_size=16),
    st.lists(edits, max_size=10),
    st.lists(names, max_size=6),
    st.one_of(st.integers(0, 4), st.sampled_from([8, 13, 30, 100])),
)
def test_near_tokens_are_the_tokens_within_the_edit_budget(token, variants, others, lev):
    corpus_names = [edited(token, steps) for steps in variants] + others
    vocabulary = TokenVocabulary(corpus_names, lev)
    for query in {token.casefold(), *" ".join(corpus_names).casefold().split()}:
        assert sorted(vocabulary.near(query)) == sorted(
            other
            for other in vocabulary.names
            if other and levenshtein(query, other) < lev
        )


@pytest.mark.parametrize(
    "corpus_names, token, lev, expected",
    [
        # Tokens shorter than lev cannot fill their lev segments.
        (["a", "ab", "b", "abc", "abcd"], "b", 3, ["a", "ab", "abc", "b"]),
        (["a", "ab", "xyz"], "xy", 4, ["a", "ab", "xyz"]),
        (["a", "ab", "b"], "", 2, ["a", "b"]),
        # A transposition is two edits.
        (["ba"], "ab", 1, []),
        (["ba"], "ab", 2, []),
        (["ba"], "ab", 3, ["ba"]),
        (["ab"], "ab", 1, ["ab"]),
        (["ab"], "ab", 0, []),
        # An insertion at the first and at the last position, both ways.
        (["xkatsuhiko", "katsuhikox", "katsuhiko"], "katsuhiko", 2,
         ["katsuhiko", "katsuhikox", "xkatsuhiko"]),
        (["katsuhiko"], "xkatsuhiko", 2, ["katsuhiko"]),
        (["katsuhiko"], "katsuhikox", 2, ["katsuhiko"]),
        (["xykatsuhiko", "katsuhikoxy"], "katsuhiko", 2, []),
        (["xykatsuhiko", "katsuhikoxy"], "katsuhiko", 3,
         ["katsuhikoxy", "xykatsuhiko"]),
        # "ß" casefolds to "ss" and "İ" to "i" and a combining dot above.
        (["Straße"], "strase", 2, ["strasse"]),
        (["Straße"], "straße", 2, []),
        (["İsa"], "isa", 2, ["i\u0307sa"]),
        (["İsa"], "sa", 2, []),
        (["İsa"], "sa", 3, ["i\u0307sa"]),
        # Budgets above the token lengths: one empty segment per token.
        # "a" is 8 edits from "xbcdefgh".
        (["a", "abcdefgh", "abcdefghijk"], "xbcdefgh", 8,
         ["abcdefgh", "abcdefghijk"]),
        (["a", "abcdefgh", "abcdefghijk"], "xbcdefgh", 9,
         ["a", "abcdefgh", "abcdefghijk"]),
        (["ab", "katsuhiko", "xykatsuhikoxy"], "", 30,
         ["ab", "katsuhiko", "xykatsuhikoxy"]),
        (["ab", "katsuhiko"], "katsuhiko" * 4, 30, ["katsuhiko"]),
    ],
)
def test_near_tokens_at_the_edges_of_the_segments(corpus_names, token, lev, expected):
    assert sorted(TokenVocabulary(corpus_names, lev).near(token)) == expected


def test_near_answers_a_repeated_query_without_checking(monkeypatch):
    vocabulary = TokenVocabulary(["Shinsuke Mori", "Tetsuya Mory"], 2)
    first = vocabulary.near("mori")
    assert sorted(first) == ["mori", "mory"]
    calls = []

    def counting(a, b, limit=None):
        calls.append((a, b))
        return levenshtein(a, b, limit)

    monkeypatch.setattr(dblp, "levenshtein", counting)
    assert vocabulary.near("mori") is first
    assert calls == []
    assert vocabulary.near("shinsuke") == ["shinsuke"] and calls


def test_a_large_budget_cuts_each_token_into_at_most_its_length_plus_one():
    # Each token is cut for its own length: tau + 1 segments per token, and
    # a window over every length within tau, would grow with the budget.
    tracemalloc.start()
    try:
        vocabulary = TokenVocabulary(["katsuhiko", "katsuhiro", "mori", "neubig"], 10**4)
        near = vocabulary.near("katsuhiko")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(near) == ["katsuhiko", "katsuhiro", "mori", "neubig"]
    assert peak < 2**19


def far_coauthors(tmp_path):
    """400 chained names whose tokens of doubled letters differ in at least
    two places, loaded at the default settings."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    far = ["".join(2 * letters[n // 26**i % 26] for i in range(2)) for n in range(400)]
    document = io.BytesIO(corpus_document(zip(far, far[1:])))
    with corpus_store(tmp_path, document) as store:
        return far, store.load_coauthors(MatchConfig())


def counted_names_match(monkeypatch):
    calls = []

    def counting(a, b, cfg):
        calls.append((a, b))
        return names_match(a, b, cfg)

    monkeypatch.setattr(dblp, "names_match", counting)
    return calls


def test_common_coauthors_compares_only_candidates(monkeypatch, tmp_path):
    far, coauthors = far_coauthors(tmp_path)
    calls = counted_names_match(monkeypatch)
    assert common_coauthors([far[10], far[12]], coauthors) == [far[11]]
    assert len(coauthors) == len(far)
    assert len(calls) < len(far) // 10


def test_common_coauthors_decides_each_name_pair_once(monkeypatch, tmp_path):
    # A name that an input author matched is left out by that one decision;
    # no neighbour is compared with the authors again.
    far, coauthors = far_coauthors(tmp_path)
    calls = counted_names_match(monkeypatch)
    authors = [far[10], far[12], far[14]]
    assert common_coauthors(authors, coauthors) == [far[11], far[13]]
    assert calls and all(author in authors for author, _ in calls)
    assert len(set(calls)) == len(calls)


def test_common_coauthors_lists_no_blank_name(tmp_path):
    # iter_corpus keeps a blank <author> as "", so two authors can share it.
    document = io.BytesIO(
        corpus_document(
            [["Ann Lee", ""], ["Bo Chan", " "], ["Ann Lee", "Cy Ito"], ["Bo Chan", "Cy Ito"]]
        )
    )
    with corpus_store(tmp_path, document) as store:
        coauthors = store.load_coauthors(MatchConfig())
    assert "" in coauthors["Ann Lee"] and "" in coauthors["Bo Chan"]
    assert common_coauthors(["Ann Lee", "Bo Chan"], coauthors) == ["Cy Ito"]


def test_near_checks_only_tokens_that_share_a_segment(monkeypatch, tmp_path):
    # Three doubled-letter pairs per token, each from its own permutation of
    # 0..399: no two tokens share a segment, and they are 5 or more edits
    # apart.
    letters = "abcdefghijklmnopqrstuvwxyz"
    far = [
        "".join(2 * letters[x // 20] + 2 * letters[x % 20] for x in codes)
        for n in range(400)
        for codes in [(n, (7 * n + 3) % 400, (13 * n + 5) % 400)]
    ]
    document = io.BytesIO(corpus_document(zip(far, far[1:])))
    with corpus_store(tmp_path, document) as store:
        coauthors = store.load_coauthors(MatchConfig(lev_threshold=3))
    calls = []

    def counting(a, b, limit=None):
        calls.append((a, b))
        return levenshtein(a, b, limit)

    monkeypatch.setattr(dblp, "levenshtein", counting)
    assert common_coauthors([far[10], far[12]], coauthors) == [far[11]]
    assert len(coauthors) == len(far)
    assert 0 < len(calls) < len(far) // 10


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


# A named entity reference; "#" leaves out character references.
_ENTITY_RE = re.compile(rb"&([^\s&;#<>]+);")
_CDATA_RE = re.compile(rb"<!\[CDATA\[.*?\]\]>", re.DOTALL)
_XML_BUILTINS = {b"amp", b"lt", b"gt", b"quot", b"apos"}


def reference_corpus(
    data: bytes,
) -> tuple[list[CorpusPublication], list[str], list[str]]:
    """The publications of a whole corpus document by ``ET.fromstring``, the
    unknown record types it skips and the warnings for the undeclared
    entities of its text outside CDATA.

    An internal subset declares every HTML entity, and each other name as
    ``&#38;#38;name;``, which reads as the literal ``&name;`` (XML 1.0,
    Appendix D).  The document must have no DOCTYPE of its own.
    """
    names = set(_ENTITY_RE.findall(data)) - _XML_BUILTINS
    declarations = b"".join(
        b'<!ENTITY %s "&#%d;">' % (name, name2codepoint[name.decode()])
        if name.decode() in name2codepoint
        else b'<!ENTITY %s "&#38;#38;%s;">' % (name, name)
        for name in sorted(names)
    )
    declaration = re.match(rb"<\?xml.*?\?>", data)
    at = declaration.end() if declaration else 0
    doctype = b"<!DOCTYPE dblp [" + declarations + b"]>"
    root = ET.fromstring(data[:at] + doctype + data[at:])
    entity_warnings = [
        f"unknown entity &{name.decode()}; left undecoded"
        for name in _ENTITY_RE.findall(_CDATA_RE.sub(b"", data))
        if name not in _XML_BUILTINS and name.decode() not in name2codepoint
    ]
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
    return publications, unknown, entity_warnings


def test_iter_corpus_equals_the_reference_on_the_fixture(corpus):
    data = FIXTURE.read_bytes()
    publications, _, _ = reference_corpus(data)
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


def parsed_with_warnings(xml: bytes) -> tuple[list[CorpusPublication], list[str]]:
    return logged_warnings(list, dblp.iter_corpus(io.BytesIO(xml)))


def test_cdata_text_is_kept_literally_without_a_warning():
    xml = (
        b"<dblp><article><title><![CDATA[M&auml;rz &bogus;]]></title></article>"
        b"</dblp>"
    )
    parsed, warnings = parsed_with_warnings(xml)
    assert [p.title for p in parsed] == ["M&auml;rz &bogus;"]
    assert warnings == []


def test_an_internal_subset_declaration_wins_over_the_html_entity():
    xml = (
        b'<?xml version="1.0" encoding="ISO-8859-1"?>\n'
        b'<!DOCTYPE dblp [<!ENTITY auml "ae">]>\n'
        b"<dblp><article key='m'><title>M&auml;rz &eacute;</title></article></dblp>"
    )
    parsed, warnings = parsed_with_warnings(xml)
    assert [p.title for p in parsed] == ["Maerz \u00e9"]
    assert warnings == []


def test_an_undeclared_entity_in_an_attribute_value_is_dropped():
    # expat reports no skipped entity inside an attribute value.
    xml = b'<dblp><article key="a&bogus;b"><title>T</title></article></dblp>'
    parsed, warnings = parsed_with_warnings(xml)
    assert [p.key for p in parsed] == ["ab"]
    assert warnings == []


def test_an_external_entity_is_never_read(tmp_path):
    secret = tmp_path / "secret.txt"
    secret.write_text("private words")
    xml = (
        b'<!DOCTYPE dblp [<!ENTITY secret SYSTEM "%s">]>\n'
        b"<dblp><article key='s'><title>a &secret; b</title>"
        b"<author>&secret;</author></article></dblp>" % str(secret).encode()
    )
    store, warnings = logged_warnings(corpus_store, tmp_path, io.BytesIO(xml))
    with store:
        assert [(p.title, p.authors) for p in stored_publications(store)] == [
            ("a  b", ("",))
        ]
        for table in (store.dblp, store.edges):
            rows = store.connection.execute(f"SELECT * FROM {table}").fetchall()
            assert "private" not in repr(rows)
    assert warnings == [f"external entity {secret} not read"] * 2


# Latin-1 text, escaped; named entities known, unknown and built in, and
# numeric references beyond Latin-1 (fullwidth digits).
_plain = st.text(alphabet="ab Z09é\n\t&<>", max_size=5).map(
    lambda text: text.replace("&", "&amp;").replace("<", "&lt;")
)
_reference = st.sampled_from(
    ["&auml;", "&sup2;", "&eacute;", "&amp;", "&lt;", "&#65298;", "&#233;", "&bogus;"]
)
# CDATA content holds no ">", so no "]]>" ends it early.
_cdata = st.lists(
    st.one_of(st.text(alphabet="ab &<]\n", max_size=4), _reference), max_size=3
).map(lambda parts: "<![CDATA[" + "".join(parts) + "]]>")
_inline = st.lists(st.one_of(_plain, _reference, _cdata), max_size=3).map("".join)
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
    publications, unknown, entity_warnings = reference_corpus(data)
    with patch.object(dblp, "BLOCK_SIZE", block_size):
        parsed, warnings = logged_warnings(list, dblp.iter_corpus(io.BytesIO(data)))
    assert parsed == publications
    skipped = [f"skipping unknown record type <{tag}>" for tag in unknown]
    assert [message for message in warnings if "record type" in message] == skipped
    assert sorted(warnings) == sorted(entity_warnings + skipped)
