"""Configuration, persistence, statistics and CLI stage behaviour."""

import configparser
import http.client
import io
import json
import logging
import os
import re
import shutil
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpbib import bht, dblp, oai, pipeline, transcription
from jpbib.config import Config, ConfigError, parse_config
from jpbib.matching import AuthorResolution, NameStatus, PersonName
from jpbib.oai import OAI_NS, TransportError, get_record, parse_junii2
from jpbib.oai_mock import junii2_payload
from jpbib.pipeline import run
from jpbib.similarity import MatchConfig
from jpbib.stats import RecordOutcome, RunStatistics
from jpbib.store import SqliteStore, _resolution, _resolution_row, _to_json

from corpora import (
    TitleScan,
    coauthor_adjacency,
    coauthor_edges,
    corpus_document,
    corpus_store,
    stored_edges,
    stored_publications,
)
from mockrepo import GOLDEN_ID, build_provider, repeating_first_page

FIXTURES = Path(__file__).parent / "fixtures"


# -- configuration -----------------------------------------------------------


def test_parse_config_example(caplog):
    with caplog.at_level(logging.WARNING, logger="jpbib.config"):
        config = parse_config(str(FIXTURES / "config_example.ini"))
    assert config.min_id == 1
    assert config.max_id == 100000
    assert config.use_list_records is True
    assert config.db_url == "myserver"
    assert config.db_name == "mydbname"
    assert config.use_unclassified_names is False
    assert config.enamdict_file == "./enamdict"
    assert config.files_path == "./files-harvester"
    assert config.dblp_xml_file == "/dblp/dblp.xml"
    assert config.bht_path == "./bht"
    assert config.show_common_coauthors is True
    assert config.log_path == "./log"
    # The layout's credentials and table names are read as unknown entries.
    assert caplog.messages == [
        "unknown config key db.user",
        "unknown config key db.password",
        "unknown config key japnamesdb.table",
        "unknown config section [dblpdb]",
        "unknown config section [oaidb]",
    ]


def test_parse_config_defaults(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text("[enamdict]\nfile=./names.txt\n")
    config = parse_config(str(path))
    assert config.show_common_coauthors is True  # documented default
    assert config.use_unclassified_names is False
    assert config.min_id == 1 and config.max_id == 100000
    assert config.lev_threshold == 2
    assert config.match_threshold == 0.75
    assert config.base_dir == str(tmp_path)


def test_parse_config_minid_exceeding_maxid(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text("[harvester]\nminid=10\nmaxid=5\n")
    with pytest.raises(ConfigError) as info:
        parse_config(str(path))
    assert "minid" in str(info.value)


def test_parse_config_bad_value_names_key(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text("[harvester]\nminid=soon\n")
    with pytest.raises(ConfigError) as info:
        parse_config(str(path))
    assert "harvester.minid" in str(info.value)


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/config.ini")


def test_parse_config_default_section_sets_no_key(tmp_path, caplog):
    path = tmp_path / "config.ini"
    path.write_text("[DEFAULT]\npath=./elsewhere\n[bhtexport]\n[log]\n[db]\n")
    with caplog.at_level(logging.WARNING, logger="jpbib.config"):
        config = parse_config(str(path))
    assert config == Config(base_dir=str(tmp_path))
    assert caplog.messages == ["unknown config section [DEFAULT]"]


def test_parse_config_match_threshold_above_one(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text("[bhtexport]\nmatchthreshold=1.5\n")
    with pytest.raises(ConfigError, match=r"^bhtexport\.matchthreshold: must lie"):
        parse_config(str(path))


def test_run_config_key_before_any_section_exits_with_one_line(tmp_path, capsys):
    path = tmp_path / "config.ini"
    path.write_text("db=jpbib\n[db]\n")
    assert run(["--config", str(path), "-e"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot parse config file")
    assert "no section headers" in err
    assert err.count("\n") == 1


def test_parse_config_unknown_key_warns(tmp_path, caplog):
    path = tmp_path / "config.ini"
    path.write_text("[harvester]\nminid=1\nfancyknob=7\n[mystery]\nx=1\n")
    with caplog.at_level(logging.WARNING, logger="jpbib.config"):
        parse_config(str(path))
    assert any("fancyknob" in message for message in caplog.messages)
    assert any("mystery" in message for message in caplog.messages)


def test_readme_configuration_block_lists_every_key_with_its_default(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL)[1]
    listed = configparser.ConfigParser(interpolation=None)
    listed.read_string(block)
    assert {
        (section, key) for section in listed.sections() for key in listed[section]
    } == {field.metadata["ini"] for field in fields(Config) if field.metadata}
    # The block is a working config file that changes no default.
    path = tmp_path / "config.ini"
    path.write_text(block, encoding="utf-8")
    assert parse_config(str(path)) == Config(base_dir=str(tmp_path))


def test_store_path_resolution(tmp_path):
    config = Config(base_dir=str(tmp_path), db_name="store")
    assert config.store_path == str(tmp_path / "store.sqlite3")
    config = Config(base_dir=str(tmp_path), db_url="sub", db_name="x")
    assert config.store_path == str(tmp_path / "sub" / "x.sqlite3")
    config = Config(base_dir=str(tmp_path), db_url="sqlite:///direct.sqlite3")
    assert config.store_path == str(tmp_path / "direct.sqlite3")


# -- statistics ---------------------------------------------------------------


def test_record_statistics_counts():
    outcomes = [
        RecordOutcome(False, ("Journal Article", "ja")),
        RecordOutcome(False),
        RecordOutcome(True),
        RecordOutcome(False, ("", "en")),
        RecordOutcome(False, ("Journal Article", "ja")),
    ]
    stats = RunStatistics(outcomes)
    assert stats.records_with_metadata == 4
    assert stats.deleted_records == 1
    assert stats.parse_errors == 1
    assert stats.publication_types == {"Journal Article": 2, "unknown": 1}
    assert stats.languages == {"ja": 2, "en": 1}


def test_record_statistics_percentages():
    ok, abbreviated = NameStatus.OK, NameStatus.ABBREVIATED
    stats = RunStatistics(
        [
            RecordOutcome(False, ("Article", "ja"), (ok, ok)),
            RecordOutcome(False, ("Article", "ja"), (ok, abbreviated)),
        ]
    )
    assert stats.status_percentages() == {"ok": 75.0, "abbreviated": 25.0}
    assert sum(stats.status_percentages().values()) == pytest.approx(100.0)


def test_record_statistics_empty():
    stats = RunStatistics([RecordOutcome(True), RecordOutcome(False, ("Article", "ja"))])
    assert stats.name_statuses == {}
    assert stats.status_percentages() == {}
    assert json.loads(stats.to_json())["name_status_percentages"] == {}
    assert json.loads(RunStatistics([]).to_json())["records_with_metadata"] == 0


def test_statistics_report_and_json():
    stats = RunStatistics(
        [RecordOutcome(False, ("Journal Article", "ja"), (NameStatus.OK,), True)]
    )
    report = stats.format_report()
    assert "records with metadata   1" in report
    assert "Journal Article" in report
    data = json.loads(stats.to_json())
    assert data["duplicates_found"] == 1
    assert data["name_statuses"] == {"ok": 1}


# -- store ---------------------------------------------------------------------


@pytest.fixture()
def store(tmp_path):
    config = Config(base_dir=str(tmp_path), db_name="store")
    with SqliteStore(config) as handle:
        yield handle


def stored_names(store: SqliteStore) -> tuple[list, list]:
    """The names table in id order: the (surface, latin, types) rows that
    -h reads, and the reading column, which no stage reads."""
    readings = store.connection.execute(
        f"SELECT reading FROM {store.names} ORDER BY id"
    )
    return list(store.load_name_records()), [reading for (reading,) in readings]


def as_stored(records) -> tuple[list, list]:
    """``stored_names`` of a store whose names table holds ``records``."""
    return [(r.surface, r.latin, r.types) for r in records], [
        r.reading for r in records
    ]


def test_store_names_roundtrip(store, name_records):
    assert store.replace_names(name_records) == len(name_records)
    assert store.has_names()
    assert stored_names(store) == as_stored(name_records)


def test_store_name_types_roundtrip_every_subset(store):
    from itertools import combinations

    from jpbib.enamdict import NameRecord, NameType

    subsets = [
        frozenset(chosen)
        for size in range(len(NameType) + 1)
        for chosen in combinations(NameType, size)
    ]
    assert len(subsets) == 32
    records = [
        NameRecord("森", None, f"Mori{i}", types) for i, types in enumerate(subsets)
    ]
    store.replace_names(records)
    assert stored_names(store) == as_stored(records)
    # The stored codes follow NameType order, as before the code tables.
    codes = store.connection.execute(f"SELECT types FROM {store.names} ORDER BY id")
    assert [code for (code,) in codes] == [
        "".join(t.value for t in NameType if t in types) for types in subsets
    ]


def test_store_names_load_that_fails_partway_keeps_the_previous_names(tmp_path):
    from jpbib.enamdict import NameRecord, NameType

    def records():
        for i in range(1500):
            yield NameRecord("森", None, f"Mori{i}", frozenset({NameType.SURNAME}))
        raise OSError("dictionary read failed")

    previous = [NameRecord("森", "もり", "Mori", frozenset({NameType.SURNAME}))]
    config = Config(base_dir=str(tmp_path), db_name="store")
    with SqliteStore(config) as store:
        with pytest.raises(OSError):
            store.replace_names(records())
    with SqliteStore(config) as reopened:
        # A store that had no names still has none, nor a names table.
        assert not reopened.has_names()
        schema = reopened.connection.execute("SELECT name FROM sqlite_master")
        assert reopened.names not in {name for (name,) in schema}
        reopened.replace_names(previous)
        with pytest.raises(OSError):
            reopened.replace_names(records())
    with SqliteStore(config) as reopened:
        assert stored_names(reopened) == as_stored(previous)


def test_store_corpus_roundtrip(store):
    from jpbib.dblp import iter_corpus

    with open(FIXTURES / "corpus_fixture.xml", "rb") as handle:
        stored = store.replace_corpus(iter_corpus(handle))
    with open(FIXTURES / "corpus_fixture.xml", "rb") as handle:
        publications = list(iter_corpus(handle))
    edges = coauthor_edges(publications)
    assert stored == (len(publications), len(edges))
    assert store.has_corpus()
    assert stored_publications(store) == publications
    assert store.load_corpus() == publications
    assert store.load_coauthors(MatchConfig()) == coauthor_adjacency(publications)
    assert stored_edges(store) == edges


def test_edge_insert_reads_the_corpus_in_order_without_a_sort(store):
    # The CROSS JOINs fix the loop order; ordering by the pair keys too
    # would add a temporary B-tree.
    store.replace_corpus([])
    plan = store.connection.execute(f"EXPLAIN QUERY PLAN {store._edges_sql}")
    assert not any("TEMP B-TREE" in detail for *_, detail in plan)


def corpus_state(config: Path) -> tuple[list, list, list]:
    """The corpus tables' schema entries, title index included, and both
    tables' rows; all empty on a store without corpus tables."""
    with SqliteStore(parse_config(str(config))) as opened:
        schema = opened.connection.execute(
            "SELECT type, name, sql FROM sqlite_master "
            "WHERE tbl_name IN (?, ?) ORDER BY name",
            (opened.dblp, opened.edges),
        ).fetchall()
        if not schema:
            return [], [], []
        return (
            schema,
            opened.connection.execute(f"SELECT * FROM {opened.dblp}").fetchall(),
            opened.connection.execute(f"SELECT * FROM {opened.edges}").fetchall(),
        )


def check_failed_parse_dblp(config: Path, capsys, failing) -> str:
    """A -d that fails within ``failing()`` leaves no corpus on a store that
    had none, and keeps a previous corpus for -h; returns the stderr of the
    second failed -d."""
    assert run(["--config", str(config), "-e"]) == 0
    with failing():
        assert run(["--config", str(config), "-d"]) == 1
    assert corpus_state(config) == ([], [], [])
    assert run(["--config", str(config), "-h"], fetch=build_provider().fetch) == 3
    assert "parse-dblp" in capsys.readouterr().err

    assert run(["--config", str(config), "-d", "-h"], fetch=build_provider().fetch) == 0
    statistics = config.parent / "log" / "statistics.json"
    expected = statistics.read_bytes()
    statistics.unlink()
    before = corpus_state(config)
    assert ("index", SqliteStore.title_index) in {row[:2] for row in before[0]}
    assert before[1] and before[2]
    capsys.readouterr()
    with failing():
        assert run(["--config", str(config), "-d"]) == 1
    err = capsys.readouterr().err
    assert corpus_state(config) == before
    assert run(["--config", str(config), "-h"], fetch=build_provider().fetch) == 0
    assert statistics.read_bytes() == expected
    capsys.readouterr()
    return err


def test_parse_dblp_whose_edge_load_fails_keeps_the_previous_corpus(
    tmp_path, capsys
):
    add_coauthor_edges = SqliteStore.add_coauthor_edges
    steps = []  # virtual-machine instructions run by each edge insert

    def interrupted_edges(self):
        # Interrupt the INSERT ... SELECT after 100 instructions, which
        # is partway through even the fixture corpus's six edges.
        steps.append(0)

        def handler():
            steps[-1] += 1
            return steps[-1] >= 100

        self.connection.set_progress_handler(handler, 1)
        try:
            return add_coauthor_edges(self)
        finally:
            self.connection.set_progress_handler(None, 0)

    @contextmanager
    def failing():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SqliteStore, "add_coauthor_edges", interrupted_edges)
            yield

    err = check_failed_parse_dblp(make_config_file(tmp_path), capsys, failing)
    assert "error: interrupted" in err
    assert steps == [100, 100]


def test_parse_dblp_of_a_corpus_that_breaks_late_keeps_the_previous_corpus(
    tmp_path, capsys
):
    # Well formed for more records than one parser block holds, so rows
    # are inserted before the parser reaches the error.
    records = 2000
    corpus = tmp_path / "late.xml"
    lines = [
        b'<article key="late/%d"><author>Ann %d</author><author>Bo %d</author>'
        b"<title>Late &auml; %d</title></article>\n" % (n, n, n, n)
        for n in range(records)
    ]
    corpus.write_bytes(
        b'<?xml version="1.0" encoding="ISO-8859-1"?>\n<dblp>\n'
        + b"".join(lines)
        + b"<article><title>Broken</article>\n</dblp>\n"
    )
    assert corpus.stat().st_size > 2 * dblp.BLOCK_SIZE
    config = make_config_file(tmp_path)
    good = config.read_text()
    broken = good.replace(str(FIXTURES / "corpus_fixture.xml"), str(corpus))
    taken: list[int] = []  # publications each failed -d's insert read
    add_corpus_publications = SqliteStore.add_corpus_publications

    def counting(self, rows):
        taken.append(0)

        def counted():
            for row in rows:
                taken[-1] += 1
                yield row

        return add_corpus_publications(self, counted())

    @contextmanager
    def failing():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SqliteStore, "add_corpus_publications", counting)
            config.write_text(broken)
            try:
                yield
            finally:
                config.write_text(good)

    err = check_failed_parse_dblp(config, capsys, failing)
    assert "xml parse error: mismatched tag" in err
    assert len(taken) == 2
    # More publications than the first block's bytes can hold.
    assert all(count * min(map(len, lines)) > dblp.BLOCK_SIZE for count in taken)


def config_with_corpus(tmp_path: Path, data: bytes) -> Path:
    """A config file in ``tmp_path`` whose corpus file holds ``data``."""
    corpus = tmp_path / "corpus.xml"
    corpus.write_bytes(data)
    config = make_config_file(tmp_path)
    config.write_text(
        config.read_text().replace(str(FIXTURES / "corpus_fixture.xml"), str(corpus))
    )
    return config


def test_parse_dblp_stores_a_year_of_more_than_18_digits_as_null(tmp_path, capsys):
    # An SQLite INTEGER holds 18 digits but not every 19-digit number.
    years = "".join(
        f'<article key="y/{len(year)}"><year>{year}</year></article>'
        for year in ("9" * 18, "9" * 20)
    )
    config = config_with_corpus(tmp_path, f"<dblp>{years}</dblp>".encode())
    assert run(["--config", str(config), "-d"]) == 0
    assert capsys.readouterr().err == ""
    with SqliteStore(parse_config(str(config))) as opened:
        years = [p.year for p in stored_publications(opened)]
    assert years == [999_999_999_999_999_999, None]


def test_parse_dblp_keeps_an_undeclared_entity_under_an_external_dtd(
    tmp_path, capsys, caplog
):
    # No dblp.dtd is on disk.  Under an external DTD subset an undeclared
    # entity is a validity error, not a well-formedness one (XML 1.0, 4.1).
    config = config_with_corpus(
        tmp_path,
        b'<?xml version="1.0" encoding="ISO-8859-1"?>\n'
        b'<!DOCTYPE dblp SYSTEM "dblp.dtd">\n<dblp>\n'
        b'<article key="x"><title>a &odd_name; &eacute; b</title></article>\n'
        b"</dblp>\n",
    )
    with caplog.at_level(logging.WARNING, logger="jpbib"):
        assert run(["--config", str(config), "-d"]) == 0
    assert capsys.readouterr().err == ""
    assert "unknown entity &odd_name; left undecoded" in caplog.messages
    with SqliteStore(parse_config(str(config))) as opened:
        titles = [p.title for p in stored_publications(opened)]
    assert titles == ["a &odd_name; \u00e9 b"]


def test_parse_dblp_of_a_standalone_document_with_an_html_entity_fails(
    tmp_path, capsys
):
    # A standalone document reads no external DTD subset, so its HTML
    # entities are undeclared, which breaks well-formedness.
    config = config_with_corpus(
        tmp_path,
        b'<?xml version="1.0" standalone="yes"?>\n'
        b'<dblp><article key="s"><title>&eacute;</title></article></dblp>\n',
    )
    assert run(["--config", str(config), "-d"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("xml parse error: undefined entity")
    assert err.count("\n") == 1


def test_parse_dblp_keeps_the_first_record_under_a_repeated_key(
    tmp_path, capsys, caplog
):
    # The third record's generated key is the first record's literal one.
    config = config_with_corpus(
        tmp_path,
        b'<dblp><article key="generated/3"><author>Ann</author><author>Bo</author>'
        b'</article><article key="a/1"><author>Cy</author><author>Di</author>'
        b"</article><article><author>Ed</author><author>Fay</author></article>"
        b'<article key="a/1"><author>Gus</author><author>Hal</author></article>'
        b'<article key="a/2"><author>Bo</author><author>Ann</author></article>'
        b"</dblp>",
    )
    with caplog.at_level(logging.WARNING, logger="jpbib"):
        assert run(["--config", str(config), "-d"]) == 0
    assert capsys.readouterr().err == ""
    assert caplog.messages == ["skipped 2 records whose key an earlier record has"]
    with SqliteStore(parse_config(str(config))) as opened:
        publications = stored_publications(opened)
        edges = stored_edges(opened)
    assert [(p.id, p.key, p.authors) for p in publications] == [
        (1, "generated/3", ("Ann", "Bo")),
        (2, "a/1", ("Cy", "Di")),
        (5, "a/2", ("Bo", "Ann")),
    ]
    assert edges == coauthor_edges(publications)


# Few letters, so that names repeat within and across publications;
# blank names strip to "".
_corpus_authors = st.lists(
    st.lists(st.text(alphabet="abAB ", max_size=4), max_size=4), max_size=8
)


@settings(max_examples=100, deadline=None)
@given(_corpus_authors, st.lists(st.text(alphabet="abAB ", max_size=4), max_size=3))
def test_store_coauthors_equal_the_parsed_corpus(tmp_path_factory, entries, authors):
    from jpbib.dblp import common_coauthors, iter_corpus

    document = corpus_document(entries)
    publications = list(iter_corpus(io.BytesIO(document)))
    parsed = coauthor_adjacency(publications)
    directory = tmp_path_factory.getbasetemp()
    with corpus_store(directory, io.BytesIO(document), "edges") as store:
        loaded = store.load_coauthors(MatchConfig())
        rows = stored_edges(store)
    assert rows == coauthor_edges(publications)
    assert loaded == parsed
    assert list(loaded) == list(parsed)
    assert list(loaded.tokens.names.items()) == list(parsed.tokens.names.items())
    assert common_coauthors(authors, loaded) == common_coauthors(authors, parsed)


def title_variants(title: str) -> list[str]:
    """Spellings of ``title`` that normalise alike, and two that do not."""
    return [
        title,
        title.upper(),
        title.lower(),
        "  " + title.replace(" ", " \t ") + "\n",
        title.rstrip(".") + "..",
        title.rstrip("."),
        title + " extended",
        title[: len(title) // 2],
    ]


def test_an_empty_normalised_title_matches_no_untitled_record(store):
    from jpbib.dblp import find_publication, iter_corpus

    xml = b'<dblp><article key="untitled/1"><author>Ann Lee</author></article></dblp>'
    store.replace_corpus(iter_corpus(io.BytesIO(xml)))
    assert store.publications_titled("") == [("untitled/1", ("Ann Lee",))]
    for title in ("...", " . ", ""):
        assert find_publication(title, ["Ann Lee"], store) is None


def test_store_title_lookup_agrees_with_the_parsed_corpus(store):
    from jpbib.dblp import find_publication, iter_corpus, normalize_title

    with open(FIXTURES / "corpus_fixture.xml", "rb") as handle:
        store.replace_corpus(iter_corpus(handle))
    with open(FIXTURES / "corpus_fixture.xml", "rb") as handle:
        corpus = TitleScan(iter_corpus(handle))
    hits = 0
    for publication in corpus.publications:
        others = [
            author
            for other in corpus.publications
            for author in other.authors
            if author not in publication.authors
        ]
        for title in title_variants(publication.title):
            normalised = normalize_title(title)
            expected = corpus.publications_titled(normalised)
            assert store.publications_titled(normalised) == expected
            for authors in (list(publication.authors), ["Somebody Else"], others, []):
                key = find_publication(title, authors, store)
                assert key == find_publication(title, authors, corpus)
                hits += key is not None
    assert hits >= 4 * len(corpus.publications)


def test_store_title_lookup_uses_the_title_index(store):
    from jpbib.dblp import CorpusPublication

    store.replace_corpus([CorpusPublication(1, "k/1", ("Ann",), "One.")])
    statements = []
    store.connection.set_trace_callback(statements.append)
    assert store.publications_titled("one") == [("k/1", ("Ann",))]
    store.connection.set_trace_callback(None)
    [lookup] = statements
    plan = store.connection.execute(f"EXPLAIN QUERY PLAN {lookup}").fetchall()
    assert any(f"USING INDEX {store.title_index}" in row[-1] for row in plan)


def test_store_remove_harvested_finds_the_child_rows_through_an_index(
    store, name_dictionary
):
    from jpbib.matching import resolve_author

    # Without an index each repeated identifier scanned every child table,
    # so a page full of repeats took time quadratic in its length.
    publication = oai.HarvestedPublication(
        "oai:mock:1", [("Title", "en")], [("Jane Doe", None)],
        contributors=[("Contributor", "en")], descriptions=[("Text", "en")],
    )
    with store.replace_harvest():
        store.add_harvested(
            publication, [resolve_author("Jane Doe", None, name_dictionary)]
        )
        statements = []
        store.connection.set_trace_callback(statements.append)
        assert store.remove_harvested(publication.identifier) == 1
        store.connection.set_trace_callback(None)
    deletes = {
        table: statement
        for statement in statements
        for table in store.child_indexes
        if statement.startswith(f"DELETE FROM {table} ")
    }
    assert deletes.keys() == store.child_indexes.keys()
    for table, delete in deletes.items():
        plan = store.connection.execute(f"EXPLAIN QUERY PLAN {delete}").fetchall()
        assert any(
            f"USING INDEX {store.child_indexes[table]}" in row[-1] for row in plan
        )


def test_store_harvested_reads_only_the_rendered_rows_through_an_index(
    store, name_dictionary
):
    from jpbib.matching import resolve_author

    # The export renders authors and titles only: the contributor and
    # description tables are not read, and the other two are read one
    # publication at a time by its id.
    publications = [
        oai.HarvestedPublication(
            f"oai:mock:{number}", [(f"Title {number}", "en")], [("Jane Doe", None)],
            contributors=[("Contributor", "en")], descriptions=[("Text", "en")],
        )
        for number in (1, 2)
    ]
    with store.replace_harvest():
        for publication in publications:
            store.add_harvested(
                publication, [resolve_author("Jane Doe", None, name_dictionary)]
            )
    statements = []
    store.connection.set_trace_callback(statements.append)
    items = list(store.harvested())
    store.connection.set_trace_callback(None)
    assert [(p.titles, p.creators) for p, _, _ in items] == [
        (p.titles, p.creators) for p in publications
    ]
    assert not [
        statement
        for statement in statements
        for table in (store.contributors, store.descriptions)
        if table in statement
    ]
    reads = [
        (table, statement)
        for statement in statements
        for table in store.child_indexes
        if f" FROM {table} " in statement
    ]
    assert sorted(table for table, _ in reads) == sorted(
        [store.authors, store.titles] * len(publications)
    )
    for table, read in reads:
        plan = store.connection.execute(f"EXPLAIN QUERY PLAN {read}").fetchall()
        assert any(
            f"USING INDEX {store.child_indexes[table]}" in row[-1] for row in plan
        )


_corpus_titles = st.lists(
    st.tuples(
        st.sampled_from(["One", "one.", " ONE ", "Two", "two..", "Three"]),
        st.lists(st.sampled_from(["Ann Lee", "Bo Chan", "Cy Ito"]), max_size=3),
    ),
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(
    _corpus_titles,
    st.sampled_from(["one", "TWO.", "three", "four"]),
    st.lists(st.sampled_from(["Ann Lee", "Bo Chan", "Cy Ito", "Di Ono"]), max_size=2),
)
def test_store_title_lookup_with_repeated_titles(
    tmp_path_factory, entries, title, authors
):
    from jpbib.dblp import CorpusPublication, find_publication

    # Stored as given: the parser would strip the titles' outer spaces.
    publications = [
        CorpusPublication(pid, f"k/{pid}", tuple(names), text)
        for pid, (text, names) in enumerate(entries, start=1)
    ]
    config = Config(base_dir=str(tmp_path_factory.getbasetemp()), db_name="titles")
    with SqliteStore(config) as store:
        store.replace_corpus(publications)
        assert find_publication(title, authors, store) == find_publication(
            title, authors, TitleScan(publications)
        )


def test_store_harvested_roundtrip(store, name_dictionary):
    from jpbib.matching import resolve_author

    provider = build_provider()
    record = get_record(
        "http://example.org/oai",
        "junii2",
        provider.identifier(GOLDEN_ID),
        fetch=provider.fetch,
    )
    publication = parse_junii2(record.payload, record.identifier)
    resolutions = [
        resolve_author(latin, kanji, name_dictionary)
        for latin, kanji in publication.creators
    ]
    with store.replace_harvest():
        store.add_harvested(publication, resolutions, dblp_key="conf/x/1")

    stored = stored_rows(store, publication.identifier)
    assert stored["publication"] == (
        publication.identifier,
        publication.publication_type,
        publication.date,
        publication.volume,
        publication.number,
        publication.pages,
        publication.language,
        publication.source_url,
        "conf/x/1",
    )
    assert stored["titles"] == publication.titles
    assert stored["contributors"] == publication.contributors
    assert stored["descriptions"] == publication.descriptions
    expected_authors = []
    for (latin_raw, kanji_raw), resolution in zip(publication.creators, resolutions):
        latin, kanji = resolution.latin, resolution.kanji
        expected_authors.append(
            (
                latin_raw,
                kanji_raw,
                latin.given if latin else None,
                latin.family if latin else None,
                kanji.given if kanji else None,
                kanji.family if kanji else None,
                resolution.status.value,
                [[c.given, c.family] for c in resolution.candidates],
            )
        )
    assert stored["authors"] == expected_authors
    assert len(expected_authors) == len(publication.creators) > 0
    assert list(store.harvested()) == [(publication, resolutions, "conf/x/1")]

    # Removing leaves no row behind, and the identifier can be stored again.
    assert store.remove_harvested(publication.identifier) == 1
    assert stored_rows(store, publication.identifier) is None
    tables = (
        store.publications,
        store.authors,
        store.titles,
        store.contributors,
        store.descriptions,
    )
    counts = [
        store.connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        for table in tables
    ]
    assert counts == [0] * len(tables)
    assert list(store.harvested()) == []
    assert store.add_harvested(publication, resolutions, "conf/x/1", 7) == 7
    assert stored_rows(store, publication.identifier) == stored


_names = st.builds(PersonName, st.text(), st.text())


@settings(max_examples=500, deadline=None)
@given(
    st.builds(
        AuthorResolution,
        st.none() | _names,
        st.none() | _names,
        st.lists(_names, max_size=3),
        st.sampled_from(NameStatus),
    ),
    st.text().filter(lambda text: text not in {s.value for s in NameStatus}),
)
def test_author_row_codec_round_trips(resolution, unknown):
    row = _resolution_row(resolution)
    assert _resolution(*row) == resolution
    # The stored candidates are the encoder's bytes, "[]" included.
    pairs = [[c.given, c.family] for c in resolution.candidates]
    assert row[-1] == _to_json(pairs)
    with pytest.raises(KeyError):
        _resolution(*row[:-2], unknown, row[-1])


def test_store_harvested_reads_back_many_publications_in_id_order(store):
    from jpbib.oai import HarvestedPublication

    def publication(number, authors=0, titles=0, contributors=0, descriptions=0):
        texts = [(f"text {number}.{i}", "ja" if i % 2 else "en") for i in range(9)]
        return (
            HarvestedPublication(
                f"oai:mock:{number}",
                texts[:titles],
                [(f"Author {number}.{i}", None) for i in range(authors)],
                publication_type="Journal Article" if number % 2 else "",
                date=f"20{number:02}-01-02",
                pages=f"{number}-{number + 3}" if titles else None,
                volume=str(number),
                language="jpn",
                source_url=f"http://example.org/{number}",
                contributors=texts[titles : titles + contributors],
                descriptions=texts[-descriptions:] if descriptions else [],
            ),
            [
                AuthorResolution(
                    PersonName(f"Given{i}", f"Family{number}"),
                    PersonName("太郎", "山田") if i % 2 else None,
                    [PersonName("Taro", "Yamada")] * i,
                    NameStatus.OK if i % 2 else NameStatus.NOT_FOUND_IN_DICTIONARY,
                )
                for i in range(authors)
            ],
            f"conf/x/{number}" if number % 3 else None,
        )

    first = publication(1, authors=3, titles=2, contributors=1, descriptions=2)
    second = publication(2, titles=1)
    gone = publication(3, authors=1, titles=1, descriptions=1)
    bare = publication(4)
    also_gone = publication(5, authors=2, contributors=3)
    # The copy of the first publication that arrives again: other authors
    # and texts, stored under its earlier id.
    again = publication(1, authors=1, descriptions=3)
    last = publication(6, authors=4, titles=3, contributors=2, descriptions=1)
    with store.replace_harvest():
        for item in (first, second, gone, bare, also_gone, last):
            store.add_harvested(*item)
        assert store.remove_harvested(gone[0].identifier) == 3
        assert store.remove_harvested(also_gone[0].identifier) == 5
        assert store.remove_harvested(first[0].identifier) == 1
        assert store.add_harvested(*again, publication_id=1) == 1
    kept = [again, second, bare, last]
    # The export renders no contributor or description, so they are not
    # read back; their rows are still stored, and read here directly.
    assert list(store.harvested()) == [
        (replace(publication, contributors=[], descriptions=[]), resolutions, key)
        for publication, resolutions, key in kept
    ]
    for publication, _, _ in kept:
        stored = stored_rows(store, publication.identifier)
        assert stored["contributors"] == publication.contributors
        assert stored["descriptions"] == publication.descriptions
    for table, field in (
        (store.contributors, "contributors"),
        (store.descriptions, "descriptions"),
    ):
        count = store.connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
        assert count[0] == sum(len(getattr(p, field)) for p, _, _ in kept)


def stored_rows(store, identifier):
    """The stored publication of ``identifier``: its columns, then its
    author, title, contributor and description rows in position order."""
    row = store.connection.execute(
        f"SELECT id, identifier, publication_type, date, volume, number, pages, "
        f"language, source_url, dblp_key FROM {store.publications} "
        "WHERE identifier=?",
        (identifier,),
    ).fetchone()
    if row is None:
        return None
    publication_id, *columns = row

    def rows_of(table, fields):
        return [
            tuple(values)
            for values in store.connection.execute(
                f"SELECT {fields} FROM {table} "
                "WHERE publication_id=? ORDER BY position",
                (publication_id,),
            )
        ]

    authors = [
        (*names, json.loads(candidates))
        for *names, candidates in rows_of(
            store.authors,
            "latin_raw, kanji_raw, latin_given, latin_family, kanji_given, "
            "kanji_family, status, candidates",
        )
    ]
    return {
        "publication": tuple(columns),
        "authors": authors,
        "titles": rows_of(store.titles, "text, lang"),
        "contributors": rows_of(store.contributors, "text, lang"),
        "descriptions": rows_of(store.descriptions, "text, lang"),
    }


# -- CLI ------------------------------------------------------------------------


def make_config_file(tmp_path: Path) -> Path:
    config = tmp_path / "config.ini"
    config.write_text(
        "[db]\n"
        "db=store\n"
        "[enamdict]\n"
        f"file={FIXTURES / 'names_fixture.txt'}\n"
        "[dblp]\n"
        f"xmlfile={FIXTURES / 'corpus_fixture.xml'}\n"
        "[harvester]\n"
        "filespath=./files-harvester\n"
        "minid=1\n"
        "maxid=300\n"
        "uselistrecords=true\n"
        "idprefix=oai:mock:\n"
        "[bhtexport]\n"
        "path=./bht\n"
        "showcommoncoauthors=true\n"
        "[log]\n"
        "path=./log\n"
    )
    return config


def test_run_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "--concatenate-bht" in capsys.readouterr().out
    assert run(["-help"]) == 0


def test_run_without_flags_prints_usage(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err


def test_run_harvest_without_stores_fails(tmp_path, capsys):
    config = make_config_file(tmp_path)
    provider = build_provider()
    status = run(["--config", str(config), "--harvest"], fetch=provider.fetch)
    assert status == 3
    assert "parse-dblp" in capsys.readouterr().err


def test_run_harvest_without_the_dictionary_table_fails(tmp_path, capsys):
    config = make_config_file(tmp_path)
    assert run(["--config", str(config), "-d"]) == 0
    requests = []
    assert run(["--config", str(config), "-h"], fetch=requests.append) == 3
    assert capsys.readouterr().err == (
        "prerequisite error: harvest needs the name dictionary table; "
        "run --enamdict first\n"
    )
    assert requests == []


def test_run_harvest_over_an_unknown_type_code_names_enamdict(tmp_path, capsys):
    config = make_config_file(tmp_path)
    assert run(["--config", str(config), "-d", "-e"]) == 0
    with SqliteStore(parse_config(str(config))) as opened:
        opened.connection.execute(f"UPDATE {opened.names} SET types='gs' WHERE id=1")
        opened.flush()
    capsys.readouterr()
    requests = []
    assert run(["--config", str(config), "-h"], fetch=requests.append) == 3
    assert capsys.readouterr().err == (
        "prerequisite error: the name dictionary table holds the unknown type "
        "code 'gs'; run --enamdict again\n"
    )
    assert requests == []


def test_all_over_the_mock_repository_walks_only_lowercase_text(
    tmp_path, monkeypatch, capsys
):
    # The spelling walk keeps no case, so every text a run hands it must
    # be lowercase.  The mock repository's names come capitalized
    # ("Midori Ohta"), in capitals ("NobukazuYOSHIOKA"), fullwidth and
    # with separators ("Shin'ichi").
    walked = []
    for name in ("strip_length_h", "expand_double_vowels"):
        def spy(arg, walk=getattr(transcription, name)):
            walked.append(arg if isinstance(arg, str) else arg.text)
            return walk(arg)

        monkeypatch.setattr(transcription, name, spy)
    config = make_config_file(tmp_path)
    assert run(["--config", str(config), "--all"], fetch=build_provider().fetch) == 0
    capsys.readouterr()
    assert {"ohta", "yoshioka", "shinichi"} <= set(walked)
    assert [text for text in walked if text != text.lower()] == []


def test_run_concatenate_without_bht_fails(tmp_path, capsys):
    config = make_config_file(tmp_path)
    assert run(["--config", str(config), "--concatenate-bht"]) == 3


def test_run_bad_config(tmp_path):
    assert run(["--config", str(tmp_path / "missing.ini"), "-e"]) == 2


def test_run_with_a_log_path_that_is_a_file_exits_with_one_line(tmp_path, capsys):
    config = make_config_file(tmp_path)
    (tmp_path / "log").write_text("not a directory\n")
    assert run(["--config", str(config), "-e"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error: ") and captured.err.count("\n") == 1
    # No stage ran: the store was never opened.
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.ini", "log"]


def test_run_rejects_a_config_file_that_is_not_utf8(tmp_path, capsys):
    config = make_config_file(tmp_path)
    latin_1 = config.read_text().replace("db=store", "db=café").encode("latin-1")
    config.write_bytes(latin_1)
    assert run(["--config", str(config), "-e"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read config file '{config}'")
    assert "utf-8" in err
    assert not list(tmp_path.glob("*.sqlite3"))


def test_parse_config_reads_past_a_byte_order_mark(tmp_path):
    config = make_config_file(tmp_path)
    plain = parse_config(str(config))
    config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
    assert parse_config(str(config)) == plain


def test_run_enamdict_that_is_not_utf8_keeps_the_previous_names(tmp_path, capsys):
    config = make_config_file(tmp_path)
    assert run(["--config", str(config), "-e"]) == 0
    with SqliteStore(parse_config(str(config))) as opened:
        previous = stored_names(opened)
    # The historical ENAMDICT encoding.
    euc_jp = tmp_path / "enamdict.euc"
    fixture = FIXTURES / "names_fixture.txt"
    euc_jp.write_bytes(fixture.read_text(encoding="utf-8").encode("euc_jp"))
    config.write_text(config.read_text().replace(str(fixture), str(euc_jp)))
    capsys.readouterr()

    assert run(["--config", str(config), "-e"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(euc_jp) in err and "iconv -f EUC-JP -t UTF-8" in err
    with SqliteStore(parse_config(str(config))) as opened:
        assert stored_names(opened) == previous


def test_run_enamdict_reads_past_a_byte_order_mark(tmp_path, capsys):
    from jpbib.enamdict import NameType

    config = make_config_file(tmp_path)
    fixture = FIXTURES / "names_fixture.txt"
    # A record on the first line, after the mark.
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + "森 [もり] /Mori (s)/\n".encode("utf-8"))
    config.write_text(config.read_text().replace(str(fixture), str(marked)))

    assert run(["--config", str(config), "-e"]) == 0
    capsys.readouterr()
    with SqliteStore(parse_config(str(config))) as opened:
        assert stored_names(opened) == (
            [("森", "Mori", frozenset({NameType.SURNAME}))],
            ["もり"],
        )


def test_run_enamdict_streams_and_rolls_back_a_late_decode_error(
    tmp_path, capsys, monkeypatch
):
    config = make_config_file(tmp_path)
    assert run(["--config", str(config), "-e"]) == 0
    with SqliteStore(parse_config(str(config))) as opened:
        previous = stored_names(opened)
    # More than 128 KiB of valid lines, then one line that is not UTF-8.
    valid = "".join(f"森{i} [もり] /Mori{i} (s)/\n" for i in range(6000))
    assert len(valid.encode("utf-8")) > 128 * 1024
    late = tmp_path / "late.txt"
    late.write_bytes(valid.encode("utf-8") + "森 [もり] /Mori (s)/\n".encode("euc_jp"))
    fixture = FIXTURES / "names_fixture.txt"
    config.write_text(config.read_text().replace(str(fixture), str(late)))

    received = []
    drawn = 0
    replace_names = SqliteStore.replace_names

    def spy(self, records):
        received.append(records)

        def counted():
            nonlocal drawn
            for record in records:
                drawn += 1
                yield record

        return replace_names(self, counted())

    monkeypatch.setattr(SqliteStore, "replace_names", spy)
    capsys.readouterr()
    assert run(["--config", str(config), "-e"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(late) in err
    # The records reach the insert as an iterator, drawn before the error.
    [records] = received
    assert iter(records) is records
    assert drawn > 0
    with SqliteStore(parse_config(str(config))) as opened:
        assert stored_names(opened) == previous


def test_run_enamdict_logs_each_warning_in_line_order_then_the_counts(
    tmp_path, capsys
):
    config = make_config_file(tmp_path)
    assert run(["--config", str(config), "-e"]) == 0
    [log_file] = (tmp_path / "log").glob("run-*.log")
    messages = [
        line.partition(" jpbib.pipeline: ")[2]
        for line in log_file.read_text(encoding="utf-8").splitlines()
        if " jpbib.pipeline: dictionary line " in line or " stored " in line
    ]
    # The fixture's irregular lines.
    lines = (FIXTURES / "names_fixture.txt").read_text(encoding="utf-8").splitlines()
    assert messages == [
        f"dictionary line 35 (missing-terminal-slash): {lines[34]}",
        f"dictionary line 36 (stray-bracket): {lines[35]}",
        f"dictionary line 37 (stray-bracket): {lines[36]}",
        "stored 34 name records (3 warnings)",
    ]


def test_dictionary_build_from_the_store_holds_no_record_list(store):
    import random
    import tracemalloc

    from jpbib.enamdict import NameRecord, NameType
    from jpbib.matching import NameDictionary

    # About 5k records over 676 two-character surfaces, several readings each.
    rng = random.Random(24)
    kanji = "森田中村山本川井上木下松岡吉藤原野小大石島林佐高橋"
    syllables = (
        "ka ki ku ko sa shi su so ta chi tsu to na ni no ha hi fu ho ma mi mo "
        "ya yu yo ra ri ro wa n"
    ).split()
    combinations = [
        frozenset({NameType.SURNAME}),
        frozenset({NameType.GIVEN}),
        frozenset({NameType.MALE_GIVEN}),
        frozenset({NameType.FEMALE_GIVEN}),
        frozenset({NameType.FEMALE_GIVEN, NameType.MALE_GIVEN}),
    ]
    records = [
        NameRecord(
            rng.choice(kanji) + rng.choice(kanji),
            None,
            "".join(rng.choices(syllables, k=rng.randint(2, 4))).capitalize(),
            rng.choice(combinations),
        )
        for _ in range(5000)
    ]
    store.replace_names(records)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dictionary = NameDictionary(store.load_name_records())
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dictionary.probe(records[0].latin)[0]
    assert peak - base <= 1.2 * (live - base)


def test_run_rejects_an_endpoint_that_is_not_an_http_url_before_any_stage(
    tmp_path, capsys
):
    config = make_config_file(tmp_path)
    config.write_text(
        config.read_text().replace(
            "[harvester]\n", "[harvester]\nendpoint=not-a-url\n"
        )
    )
    provider = build_provider()
    assert run(["--config", str(config), "--all"], fetch=provider.fetch) == 2
    assert "harvester.endpoint" in capsys.readouterr().err
    assert not (tmp_path / "store.sqlite3").exists()


@pytest.mark.parametrize(
    "endpoint", ["http://example.org/oai", "https://example.org/oai?a=b", ""]
)
def test_parse_config_accepts_an_http_endpoint_or_none(tmp_path, endpoint):
    path = tmp_path / "config.ini"
    path.write_text(f"[harvester]\nendpoint={endpoint}\n")
    assert parse_config(str(path)).endpoint == endpoint


@pytest.mark.parametrize(
    "endpoint",
    [
        "not-a-url",
        "ftp://example.org/oai",
        "http://",
        "example.org/oai",
        "http://[::1",
        "http://example.org:port/oai",
    ],
)
def test_parse_config_rejects_an_endpoint_that_is_not_an_http_url(tmp_path, endpoint):
    path = tmp_path / "config.ini"
    path.write_text(f"[harvester]\nendpoint={endpoint}\n")
    with pytest.raises(ConfigError) as info:
        parse_config(str(path))
    assert str(info.value).startswith("harvester.endpoint: ")


def test_run_rejects_negative_levthreshold_before_any_stage(tmp_path, capsys):
    config = make_config_file(tmp_path)
    config.write_text(
        config.read_text().replace("[bhtexport]\n", "[bhtexport]\nlevthreshold=-1\n")
    )
    provider = build_provider()
    assert run(["--config", str(config), "--all"], fetch=provider.fetch) == 2
    assert "bhtexport.levthreshold" in capsys.readouterr().err
    assert not (tmp_path / "store.sqlite3").exists()


def test_run_all_stages(tmp_path, capsys):
    config = make_config_file(tmp_path)
    provider = build_provider()
    status = run(["--config", str(config), "--all"], fetch=provider.fetch)
    out = capsys.readouterr().out
    assert status == 0
    assert "harvest statistics" in out
    assert "all.bht" in out

    stats = json.loads((tmp_path / "log" / "statistics.json").read_text())
    assert stats["records_with_metadata"] == 245
    assert stats["deleted_records"] == 5
    assert stats["parse_errors"] == 1
    assert stats["duplicates_found"] == 1
    # Type and language counters partition the parsed records.
    parsed = stats["records_with_metadata"] - stats["parse_errors"]
    assert sum(stats["publication_types"].values()) == parsed
    assert sum(stats["languages"].values()) == parsed

    # Every stored author row carries one of the eight status values.
    from jpbib.matching import NameStatus

    valid = {status.value for status in NameStatus}
    with SqliteStore(parse_config(str(config))) as opened:
        rows = opened.connection.execute(
            f"SELECT DISTINCT status FROM {opened.authors}"
        ).fetchall()
    assert rows and {row[0] for row in rows} <= valid

    bht_files = sorted((tmp_path / "bht").rglob("*.bht"))
    assert any(path.name == "all.bht" for path in bht_files)
    assert any(path.name == f"{GOLDEN_ID}.bht" for path in bht_files)

    golden = (FIXTURES / "golden_pointwise.bht").read_bytes()
    produced = next(
        path for path in bht_files if path.name == f"{GOLDEN_ID}.bht"
    ).read_bytes()
    assert produced == golden


def test_run_all_ignores_retired_table_keys(tmp_path, capsys):
    config = make_config_file(tmp_path)
    config.write_text(
        config.read_text()
        + "[japnamesdb]\ntable=people\n"
        "[dblpdb]\ndblptable=corpus\n"
        "[oaidb]\npublicationtable=records\n"
    )
    provider = build_provider()
    assert run(["--config", str(config), "--all"], fetch=provider.fetch) == 0
    capsys.readouterr()
    with SqliteStore(parse_config(str(config))) as opened:
        schema = set(
            opened.connection.execute("SELECT type, name FROM sqlite_master")
        )
    tables = {
        "japnames",
        "dblp",
        "dblpauthors",
        "oai_publications",
        "oai_authors",
        "oai_titles",
        "oai_contributors",
        "oai_descriptions",
    }
    # SQLite's own indexes for the two UNIQUE columns, the title index and
    # the publication_id index of each harvest child table.
    indexes = {
        "sqlite_autoindex_dblp_1",
        "sqlite_autoindex_oai_publications_1",
        "dblp_title",
        "oai_authors_publication_id",
        "oai_titles_publication_id",
        "oai_contributors_publication_id",
        "oai_descriptions_publication_id",
    }
    assert schema == {("table", name) for name in tables} | {
        ("index", name) for name in indexes
    }


# PRAGMA table_info rows: (cid, name, type, notnull, default, pk).
_TEXT_TABLE_INFO = [
    (0, "id", "INTEGER", 0, None, 1),
    (1, "publication_id", "INTEGER", 1, None, 0),
    (2, "position", "INTEGER", 1, None, 0),
    (3, "text", "TEXT", 1, None, 0),
    (4, "lang", "TEXT", 1, None, 0),
]
STORE_TABLE_INFO = {
    "japnames": [
        (0, "id", "INTEGER", 0, None, 1),
        (1, "surface", "TEXT", 1, None, 0),
        (2, "reading", "TEXT", 0, None, 0),
        (3, "latin", "TEXT", 1, None, 0),
        (4, "types", "TEXT", 1, None, 0),
    ],
    "dblp": [
        (0, "id", "INTEGER", 0, None, 1),
        (1, "key", "TEXT", 1, None, 0),
        (2, "authors", "TEXT", 1, None, 0),
        (3, "title", "TEXT", 1, None, 0),
        (4, "year", "INTEGER", 0, None, 0),
        (5, "journal", "TEXT", 0, None, 0),
        (6, "pages", "TEXT", 0, None, 0),
        (7, "volume", "TEXT", 0, None, 0),
    ],
    "dblpauthors": [
        (0, "id", "INTEGER", 0, None, 1),
        (1, "author_a", "TEXT", 1, None, 0),
        (2, "author_b", "TEXT", 1, None, 0),
        (3, "publication_id", "INTEGER", 1, None, 0),
    ],
    "oai_publications": [
        (0, "id", "INTEGER", 0, None, 1),
        (1, "identifier", "TEXT", 1, None, 0),
        (2, "publication_type", "TEXT", 0, None, 0),
        (3, "date", "TEXT", 0, None, 0),
        (4, "volume", "TEXT", 0, None, 0),
        (5, "number", "TEXT", 0, None, 0),
        (6, "pages", "TEXT", 0, None, 0),
        (7, "language", "TEXT", 0, None, 0),
        (8, "source_url", "TEXT", 0, None, 0),
        (9, "dblp_key", "TEXT", 0, None, 0),
    ],
    "oai_authors": [
        (0, "id", "INTEGER", 0, None, 1),
        (1, "publication_id", "INTEGER", 1, None, 0),
        (2, "position", "INTEGER", 1, None, 0),
        (3, "latin_raw", "TEXT", 0, None, 0),
        (4, "kanji_raw", "TEXT", 0, None, 0),
        (5, "latin_given", "TEXT", 0, None, 0),
        (6, "latin_family", "TEXT", 0, None, 0),
        (7, "kanji_given", "TEXT", 0, None, 0),
        (8, "kanji_family", "TEXT", 0, None, 0),
        (9, "status", "TEXT", 1, None, 0),
        (10, "candidates", "TEXT", 1, None, 0),
    ],
    "oai_titles": _TEXT_TABLE_INFO,
    "oai_contributors": _TEXT_TABLE_INFO,
    "oai_descriptions": _TEXT_TABLE_INFO,
}
# Each table's indexes, by name: (unique, origin, partial) from PRAGMA
# index_list, then the PRAGMA index_info rows (seqno, cid, column).  An
# expression column has cid -2 and no name; "u" marks a UNIQUE column's
# own index, "c" a CREATE INDEX.
STORE_INDEXES = {
    "japnames": {},
    "dblp": {
        "dblp_title": (0, "c", 0, [(0, -2, None)]),
        "sqlite_autoindex_dblp_1": (1, "u", 0, [(0, 1, "key")]),
    },
    "dblpauthors": {},
    "oai_publications": {
        "sqlite_autoindex_oai_publications_1": (1, "u", 0, [(0, 1, "identifier")]),
    },
    **{
        table: {f"{table}_publication_id": (0, "c", 0, [(0, 1, "publication_id")])}
        for table in (
            "oai_authors",
            "oai_titles",
            "oai_contributors",
            "oai_descriptions",
        )
    },
}


def test_run_all_creates_the_declared_schema(tmp_path, capsys):
    config = make_config_file(tmp_path)
    assert run(["--config", str(config), "--all"], fetch=build_provider().fetch) == 0
    capsys.readouterr()
    with SqliteStore(parse_config(str(config))) as opened:
        execute = opened.connection.execute
        table_info = {
            table: execute(f"PRAGMA table_info({table})").fetchall()
            for table in STORE_TABLE_INFO
        }
        indexes = {
            table: {
                name: (
                    unique,
                    origin,
                    partial,
                    execute(f"PRAGMA index_info({name})").fetchall(),
                )
                for _, name, unique, origin, partial in execute(
                    f"PRAGMA index_list({table})"
                )
            }
            for table in STORE_INDEXES
        }
    assert table_info == STORE_TABLE_INFO
    assert indexes == STORE_INDEXES


# Captured before the statistics were counted from per-record outcomes;
# the report and statistics.json must keep these bytes.
MOCK_REPORT = """\
harvest statistics
  records with metadata   245
  deleted records         5
  unparsable records      1
  duplicates found        1
  publication types:
    Article                      50
    Conference Paper             49
    Departmental Bulletin Paper  49
    Journal Article              46
    Technical Report             50
  languages:
    en                           2
    ja                           242
  name statuses:
    bad data quality in source        1  0.3%
    no kanji matching found           1  0.3%
    not found in name dictionary      3  0.8%
    ok                              356  98.1%
    possible name anomaly             1  0.3%
    undefined                         1  0.3%
wrote 18 all.bht files
"""
MOCK_STATISTICS_JSON = """\
{
  "deleted_records": 5,
  "duplicates_found": 1,
  "languages": {
    "en": 2,
    "ja": 242
  },
  "name_status_percentages": {
    "bad data quality in source": 0.3,
    "no kanji matching found": 0.3,
    "not found in name dictionary": 0.8,
    "ok": 98.1,
    "possible name anomaly": 0.3,
    "undefined": 0.3
  },
  "name_statuses": {
    "bad data quality in source": 1,
    "no kanji matching found": 1,
    "not found in name dictionary": 3,
    "ok": 356,
    "possible name anomaly": 1,
    "undefined": 1
  },
  "parse_errors": 1,
  "publication_types": {
    "Article": 50,
    "Conference Paper": 49,
    "Departmental Bulletin Paper": 49,
    "Journal Article": 46,
    "Technical Report": 50
  },
  "records_with_metadata": 245
}
"""


def test_run_all_statistics_bytes(tmp_path, capsys):
    config = make_config_file(tmp_path)
    provider = build_provider()
    assert run(["--config", str(config), "--all"], fetch=provider.fetch) == 0
    assert capsys.readouterr().out == MOCK_REPORT
    statistics = (tmp_path / "log" / "statistics.json").read_bytes()
    assert statistics == MOCK_STATISTICS_JSON.encode()


def test_run_all_extension_elements_in_files(tmp_path, capsys):
    from mockrepo import DEDUP_ID, NO_LATIN_ID

    config = make_config_file(tmp_path)
    provider = build_provider()
    assert run(["--config", str(config), "--all"], fetch=provider.fetch) == 0
    capsys.readouterr()

    by_name = {
        path.name: path.read_text()
        for path in (tmp_path / "bht").rglob("*.bht")
        if path.name != "all.bht"
    }
    dedup = by_name[f"{DEDUP_ID}.bht"]
    assert "<dblpkey>journals/mock/TanakaSuzuki11</dblpkey>" in dedup
    no_latin = by_name[f"{NO_LATIN_ID}.bht"]
    assert "<namecandidates" in no_latin
    assert ">undefined</status>" in no_latin


def coauthor_display_off(tmp_path: Path) -> Path:
    config = make_config_file(tmp_path)
    config.write_text(
        config.read_text().replace(
            "showcommoncoauthors=true", "showcommoncoauthors=false"
        )
    )
    return config


def test_run_common_coauthors_toggle_off(tmp_path, capsys):
    config = coauthor_display_off(tmp_path)
    provider = build_provider()
    assert run(["--config", str(config), "--all"], fetch=provider.fetch) == 0
    capsys.readouterr()
    for path in (tmp_path / "bht").rglob("*.bht"):
        assert "<commoncoauthors>" not in path.read_text()


def test_run_without_coauthor_display_builds_no_adjacency(
    tmp_path, capsys, monkeypatch
):
    # -h holds no copy of the corpus: title lookups query the store, and
    # only the coauthor display reads the adjacency, from the edge table.
    from jpbib.dblp import CorpusPublication

    calls = []

    def spy(name, original):
        def recorded(self, *args, **kwargs):
            calls.append((display, name))
            return original(self, *args, **kwargs)

        return recorded

    for display in (False, True):
        directory = tmp_path / str(display)
        directory.mkdir()
        config = (make_config_file if display else coauthor_display_off)(directory)
        assert run(["--config", str(config), "-d", "-e"]) == 0
        with monkeypatch.context() as patch:
            for owner, name in (
                (SqliteStore, "load_corpus"),
                (SqliteStore, "load_coauthors"),
                (CorpusPublication, "__init__"),
            ):
                patch.setattr(owner, name, spy(name, getattr(owner, name)))
            fetch = build_provider().fetch
            assert run(["--config", str(config), "-h", "-b"], fetch=fetch) == 0
    capsys.readouterr()
    assert calls == [(True, "load_coauthors")]


def test_harvest_without_the_title_index_gives_the_same_outputs(tmp_path, capsys):
    config = make_config_file(tmp_path)
    provider = build_provider()
    assert run(["--config", str(config), "--all"], fetch=provider.fetch) == 0
    before = harvest_outputs(config)
    assert any(b"<dblpkey>" in data for data in before[0].values())
    index = ("index", SqliteStore.title_index)
    with SqliteStore(parse_config(str(config))) as opened:
        opened.connection.execute(f"DROP INDEX {opened.title_index}")
    (config.parent / "log" / "statistics.json").unlink()
    # The title lookups scan dblp instead; -h leaves the schema as it is.
    assert run(["--config", str(config), "-h"], fetch=provider.fetch) == 0
    capsys.readouterr()
    with SqliteStore(parse_config(str(config))) as opened:
        schema = set(opened.connection.execute("SELECT type, name FROM sqlite_master"))
    assert index not in schema
    assert harvest_outputs(config) == before


def test_run_stages_separately(tmp_path, capsys):
    config = make_config_file(tmp_path)
    provider = build_provider()
    assert run(["--config", str(config), "--parse-dblp"]) == 0
    assert run(["--config", str(config), "--enamdict"]) == 0
    assert run(["--config", str(config), "--harvest"], fetch=provider.fetch) == 0
    assert run(["--config", str(config), "--concatenate-bht"]) == 0
    capsys.readouterr()


def test_harvest_requires_endpoint_without_injected_fetch(tmp_path, capsys):
    config = make_config_file(tmp_path)
    assert run(["--config", str(config), "--parse-dblp", "--enamdict"]) == 0
    status = run(["--config", str(config), "--harvest"])
    assert status == 2
    assert "endpoint" in capsys.readouterr().err


def test_run_oai_error_exits_with_error_status(tmp_path, capsys):
    config = make_config_file(tmp_path)
    body = (
        f'<OAI-PMH xmlns="{OAI_NS}">'
        '<error code="badArgument">illegal argument</error></OAI-PMH>'
    ).encode()
    assert run(["--config", str(config), "--all"], fetch=lambda url: body) == 1
    assert "oai error: badArgument: illegal argument" in capsys.readouterr().err


def test_run_repeated_resumption_token_exits_with_error_status(tmp_path, capsys):
    config = make_config_file(tmp_path)
    fetch = repeating_first_page(build_provider())
    assert run(["--config", str(config), "--all"], fetch=fetch) == 1
    assert "oai error: badResumptionToken" in capsys.readouterr().err


def test_run_record_without_a_header_exits_with_error_status(tmp_path, capsys):
    config = make_config_file(tmp_path)
    provider = build_provider()
    assert run(["--config", str(config), "--all"], fetch=provider.fetch) == 0
    previous = harvest_outputs(config)
    assert previous[0]
    headerless = (
        f'<OAI-PMH xmlns="{OAI_NS}"><ListRecords>'
        "<record><metadata><x/></metadata></record></ListRecords></OAI-PMH>"
    ).encode()
    requests = []

    def second_page_headerless(url):
        requests.append(url)
        return headerless if len(requests) > 1 else provider.fetch(url)

    assert run(["--config", str(config), "-h"], fetch=second_page_headerless) == 1
    err = capsys.readouterr().err
    assert "oai error: badVerb: record lacks a header identifier" in err
    assert len(requests) == 2
    # The first page's rows rolled back, and no file was written.
    assert harvest_outputs(config) == previous


def one_page_fetch(*records: tuple[str, str | None]):
    """A provider whose only ListRecords page holds the given
    (identifier, junii2 payload) records, in order; a payload of None
    gives a deleted header."""
    page = "".join(
        f"<record><header><identifier>{identifier}</identifier>"
        f"<datestamp>2012-10-19</datestamp></header>"
        f"<metadata>{payload}</metadata></record>"
        if payload is not None
        else f'<record><header status="deleted"><identifier>{identifier}'
        f"</identifier><datestamp>2012-10-19</datestamp></header></record>"
        for identifier, payload in records
    )
    body = f'<OAI-PMH xmlns="{OAI_NS}"><ListRecords>{page}</ListRecords></OAI-PMH>'
    body = body.encode()
    return lambda url: body


def article(title: str, volume: str, creators: list[str]) -> str:
    return junii2_payload(
        titles=[(title, "en")], creators=creators, volume=volume, language="eng"
    )


def written_bht(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): path.read_text()
        for path in sorted(root.rglob("*.bht"))
        if path.name != "all.bht"
    }


def harvest_outputs(config: Path) -> tuple[dict, list, bytes]:
    """The BHT tree's bytes (all.bht included), every harvest-table row and
    statistics.json, of the run configured by ``config``."""
    root = config.parent / "bht"
    tree = {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.bht"))
    }
    with SqliteStore(parse_config(str(config))) as opened:
        rows = [
            opened.connection.execute(f"SELECT * FROM {table} ORDER BY id").fetchall()
            for table in (opened.publications, opened.authors, *opened.text_tables)
        ]
    return tree, rows, (config.parent / "log" / "statistics.json").read_bytes()


def harvested_row_counts(config: Path) -> list[int]:
    """Rows in the publication, author and title tables."""
    with SqliteStore(parse_config(str(config))) as opened:
        return [
            opened.connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in (opened.publications, opened.authors, opened.titles)
        ]


@pytest.mark.parametrize("lev_threshold, found", [(1, False), (2, True)])
def test_run_all_matches_names_within_the_configured_edit_budget(
    tmp_path, capsys, lev_threshold, found
):
    # "Jane Doa" is one edit from the corpus's "Jane Doe": only a budget
    # of 2 finds the known publication and the common coauthor.
    corpus = (
        b"<dblp>"
        b'<article key="k/1"><author>Jane Doe</author><author>Ken Sato</author>'
        b"<title>Mock Title</title></article>"
        b'<article key="k/2"><author>John Roe</author><author>Ken Sato</author>'
        b"<title>Other Title</title></article>"
        b"</dblp>"
    )
    config = config_with_corpus(tmp_path, corpus)
    config.write_text(
        config.read_text().replace(
            "showcommoncoauthors=true\n",
            f"showcommoncoauthors=true\nlevthreshold={lev_threshold}\n",
        )
    )
    fetch = one_page_fetch(
        ("oai:mock:1", article("Mock Title", "5", ["Jane Doa", "John Roe"]))
    )
    assert run(["--config", str(config), "--all"], fetch=fetch) == 0
    capsys.readouterr()
    [text] = written_bht(tmp_path / "bht").values()
    assert ("<dblpkey>k/1</dblpkey>" in text) is found
    assert ("<commoncoauthors>Ken Sato</commoncoauthors>" in text) is found
    assert ("<commoncoauthors>" in text) is found


def test_run_repeated_identifier_last_copy_wins(tmp_path, capsys):
    config = make_config_file(tmp_path)
    fetch = one_page_fetch(
        ("oai:mock:1", article("First Copy", "5", ["Jane Doe", "John Roe"])),
        ("oai:mock:1", article("Second Copy", "6", ["Jane Doe"])),
    )
    assert run(["--config", str(config), "--all"], fetch=fetch) == 0
    capsys.readouterr()

    with SqliteStore(parse_config(str(config))) as opened:
        stored = stored_rows(opened, "oai:mock:1")
    assert stored["titles"] == [("Second Copy", "en")]
    assert stored["publication"][3] == "6"  # volume
    assert [author[0] for author in stored["authors"]] == ["Jane Doe"]
    assert harvested_row_counts(config) == [1, 1, 1]

    files = written_bht(tmp_path / "bht")
    assert list(files) == ["journal-article/volume-6/1.bht"]
    assert "Second Copy" in files["journal-article/volume-6/1.bht"]


def test_run_repeated_identifier_counted_once_by_last_copy(tmp_path, capsys):
    config = make_config_file(tmp_path)
    fetch = one_page_fetch(
        ("oai:mock:1", article("First Copy", "5", ["Jane Doe", "John Roe"])),
        ("oai:mock:1", article("Second Copy", "5", ["Jane Doe"])),
    )
    assert run(["--config", str(config), "--all"], fetch=fetch) == 0
    capsys.readouterr()

    stats = json.loads((tmp_path / "log" / "statistics.json").read_text())
    assert stats["records_with_metadata"] == 1
    assert sum(stats["name_statuses"].values()) == 1
    assert stats["publication_types"] == {"Journal Article": 1}
    assert harvested_row_counts(config) == [1, 1, 1]


@pytest.mark.parametrize(
    "last_copy, counter, with_metadata",
    [(None, "deleted_records", 0), (article("", "5", ["Jane Doe"]), "parse_errors", 1)],
    ids=["deleted", "unparsable"],
)
def test_run_repeated_identifier_removed_by_last_copy(
    tmp_path, capsys, last_copy, counter, with_metadata
):
    config = make_config_file(tmp_path)
    fetch = one_page_fetch(
        ("oai:mock:1", article("Mock Title", "5", ["Jane Doe"])),
        ("oai:mock:1", last_copy),
    )
    assert run(["--config", str(config), "--all"], fetch=fetch) == 0
    capsys.readouterr()

    assert harvested_row_counts(config) == [0, 0, 0]
    assert written_bht(tmp_path / "bht") == {}
    stats = json.loads((tmp_path / "log" / "statistics.json").read_text())
    assert stats["records_with_metadata"] == with_metadata
    assert stats[counter] == 1
    assert stats["name_statuses"] == {}
    assert stats["publication_types"] == {}


def test_run_repeated_identifier_stored_by_last_copy_after_a_deleted_one(
    tmp_path, capsys
):
    config = make_config_file(tmp_path)
    fetch = one_page_fetch(
        ("oai:mock:1", None),
        ("oai:mock:1", article("Mock Title", "5", ["Jane Doe"])),
    )
    assert run(["--config", str(config), "--all"], fetch=fetch) == 0
    capsys.readouterr()

    assert harvested_row_counts(config) == [1, 1, 1]
    assert list(written_bht(tmp_path / "bht")) == ["journal-article/volume-5/1.bht"]
    stats = json.loads((tmp_path / "log" / "statistics.json").read_text())
    assert stats["records_with_metadata"] == 1
    assert stats["deleted_records"] == 0


def test_run_colliding_file_names_keep_both(tmp_path, capsys):
    config = make_config_file(tmp_path)
    fetch = one_page_fetch(
        ("oai:mock:1", article("Mock Title", "5", ["Jane Doe"])),
        ("oai:other:1", article("Other Title", "5", ["John Roe"])),
    )
    assert run(["--config", str(config), "--all"], fetch=fetch) == 0
    capsys.readouterr()

    files = written_bht(tmp_path / "bht")
    assert list(files) == [
        "journal-article/volume-5/1.bht",
        "journal-article/volume-5/oai-other-1.bht",
    ]
    assert "Mock Title" in files["journal-article/volume-5/1.bht"]
    assert "Other Title" in files["journal-article/volume-5/oai-other-1.bht"]


def test_run_repeated_identifier_keeps_its_first_file_name(tmp_path, capsys):
    # A's last copy comes after B's, yet A keeps the name it was first given.
    config = make_config_file(tmp_path)
    fetch = one_page_fetch(
        ("oai:a:7", junii2_payload(titles=[("A First", "en")], creators=["Jane Doe"],
                                   publication_type="Article", volume="1")),
        ("oai:b:7", junii2_payload(titles=[("B", "en")], creators=["John Roe"],
                                   publication_type="Article", volume="1")),
        ("oai:a:7", junii2_payload(titles=[("A Last", "en")], creators=["Jane Doe"],
                                   publication_type="Article", volume="1")),
    )
    assert run(["--config", str(config), "--all"], fetch=fetch) == 0
    capsys.readouterr()

    files = written_bht(tmp_path / "bht")
    assert sorted(files) == ["article/volume-1/7.bht", "article/volume-1/oai-b-7.bht"]
    assert "A Last" in files["article/volume-1/7.bht"]
    assert "B." in files["article/volume-1/oai-b-7.bht"]


def test_run_keeps_a_creator_written_in_another_script(tmp_path, capsys):
    # Hangul and Cyrillic hold neither Latin letters nor kanji: each name
    # is kept as written, as the author's unsplit original-script name.
    config = make_config_file(tmp_path)
    creators = ["김철수", "Shinsuke Mori", "Иван  Петров"]
    fetch = one_page_fetch(("oai:x:1", article("Scripts", "1", creators)))
    assert run(["--config", str(config), "--all"], fetch=fetch) == 0
    capsys.readouterr()

    (text,) = written_bht(tmp_path / "bht").values()
    hangul = bht.escape_non_ascii("김철수")
    cyrillic = bht.escape_non_ascii("Иван Петров")
    assert f"<li>{hangul}, Shinsuke Mori, {cyrillic}:" in text
    assert f"<originalname>{cyrillic},</originalname>" in text
    assert f'<status name="{hangul}">undefined</status>' in text
    assert f'<status name="{cyrillic}">undefined</status>' in text
    assert 'name=""' not in text


def test_run_pairs_kanji_with_the_latin_name_past_another_script(tmp_path, capsys):
    # The Cyrillic name comes before the kanji, and the Latin name after
    # it: the kanji and Latin forms describe one author, and the Cyrillic
    # name stands alone.
    config = make_config_file(tmp_path)
    creators = ["Иван Петров", "森信介", "Shinsuke Mori"]
    fetch = one_page_fetch(("oai:x:1", article("Scripts", "1", creators)))
    assert run(["--config", str(config), "--all"], fetch=fetch) == 0
    capsys.readouterr()

    (text,) = written_bht(tmp_path / "bht").values()
    cyrillic = bht.escape_non_ascii("Иван Петров")
    mori = bht.escape_non_ascii("森,信介")
    assert f"<li>{cyrillic}, Shinsuke Mori:" in text
    assert f'<originalname latin="Shinsuke Mori">{mori}</originalname>' in text
    assert '<status name="Shinsuke Mori">ok</status>' in text
    assert f'<status name="{cyrillic}">undefined</status>' in text


def test_run_long_provider_fields_fit_the_file_name_limit(tmp_path, capsys):
    # OAI-PMH bounds none of these; each one used to make a path
    # component too long for the file system, which ended -h with exit 4.
    config = make_config_file(tmp_path)
    digits = "1234567890" * 30
    long_type = junii2_payload(
        titles=[("Long Type", "en")],
        creators=["Jane Doe"],
        publication_type="Journal Article " * 30,
        volume="5",
        language="eng",
    )
    fetch = one_page_fetch(
        ("oai:mock:1", long_type),
        ("oai:mock:2", article("Long Volume", digits, ["Jane Doe"])),
        (f"oai:mock:{digits}", article("Long Identifier", "5", ["Jane Doe"])),
    )
    assert run(["--config", str(config), "--all"], fetch=fetch) == 0
    capsys.readouterr()

    files = written_bht(tmp_path / "bht")
    assert sorted(
        re.search(r"Long \w+", text)[0] for text in files.values()
    ) == ["Long Identifier", "Long Type", "Long Volume"]
    assert all(
        len(part.encode()) <= 255 for path in files for part in Path(path).parts
    )
    assert harvested_row_counts(config) == [3, 3, 3]


def test_rerun_harvest_leaves_only_this_runs_files(tmp_path, capsys):
    config = make_config_file(tmp_path)
    first = one_page_fetch(
        ("oai:mock:1", article("First Title", "5", ["Jane Doe"])),
        ("oai:mock:2", article("Second Title", "5", ["John Roe"])),
        ("oai:mock:3", article("Third Title", "6", ["Jane Doe"])),
    )
    assert run(["--config", str(config), "--all"], fetch=first) == 0
    second = one_page_fetch(
        ("oai:mock:1", article("First Title", "5", ["Jane Doe"])),
        ("oai:mock:2", None),
        ("oai:mock:3", None),
    )
    assert run(["--config", str(config), "-h", "-b"], fetch=second) == 0
    capsys.readouterr()

    assert harvested_row_counts(config) == [1, 1, 1]
    root = tmp_path / "bht"
    files = written_bht(root)
    assert list(files) == ["journal-article/volume-5/1.bht"]
    volume_5 = root / "journal-article" / "volume-5"
    assert (volume_5 / "all.bht").read_text() == files["journal-article/volume-5/1.bht"]
    assert not (root / "journal-article" / "volume-6").exists()


def test_rerun_with_shorter_records_leaves_no_stale_tail(tmp_path, capsys):
    # Output files are overwritten in place and then cut to length.
    config = make_config_file(tmp_path)
    first = one_page_fetch(
        ("oai:mock:1", article("A Long First Title", "5", ["Jane Doe", "John Roe"])),
        ("oai:mock:2", article("Second Title", "5", ["John Roe"])),
        ("oai:mock:3", junii2_payload(titles=[("Other", "en")], creators=["Jane Doe"],
                                      publication_type="Article", volume="5")),
    )
    assert run(["--config", str(config), "--all"], fetch=first) == 0
    second = one_page_fetch(
        ("oai:mock:1", article("Short", "5", ["Jane Doe"])),
        ("oai:mock:2", article("Second Title", "5", ["John Roe"])),
    )
    assert run(["--config", str(config), "-h", "-b"], fetch=second) == 0
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    fresh_config = make_config_file(fresh)
    assert run(["--config", str(fresh_config), "--all"], fetch=second) == 0
    capsys.readouterr()

    rerun = harvest_outputs(config)
    assert rerun == harvest_outputs(fresh_config)
    assert rerun[0]["journal-article/volume-5/1.bht"].count(b"<status ") == 1


def test_rerun_with_identical_bytes_rewrites_every_file(tmp_path, capsys):
    # A rerun must touch each output file even when its bytes do not change;
    # the files are aged first, so one that is skipped keeps its old mtime.
    config = make_config_file(tmp_path)
    fetch = one_page_fetch(
        ("oai:mock:1", article("First Title", "5", ["Jane Doe"])),
        ("oai:mock:2", article("Second Title", "6", ["John Roe"])),
    )
    assert run(["--config", str(config), "--all"], fetch=fetch) == 0
    before = harvest_outputs(config)
    outputs = [*(tmp_path / "bht").rglob("*.bht"), tmp_path / "log" / "statistics.json"]
    assert len(outputs) == 5
    for path in outputs:
        os.utime(path, ns=(0, 0))
    # The file system's own clock, which may lag time.time_ns().
    marker = tmp_path / "marker"
    marker.touch()
    start = marker.stat().st_mtime_ns
    assert run(["--config", str(config), "-h", "-b"], fetch=fetch) == 0
    capsys.readouterr()

    assert harvest_outputs(config) == before
    assert [path for path in outputs if path.stat().st_mtime_ns < start] == []


def test_saved_responses_are_rewritten_in_place(tmp_path, capsys, monkeypatch):
    # [harvester] filespath keeps every response; a rerun rewrites them,
    # like the BHT files, through bht.overwrite.
    written = []
    overwrite = bht.overwrite

    def spy(path, data):
        written.append(os.path.abspath(path))
        overwrite(path, data)

    monkeypatch.setattr(bht, "overwrite", spy)
    monkeypatch.setattr("jpbib.pipeline.overwrite", spy)
    config = make_config_file(tmp_path)
    provider = build_provider()
    for _ in range(2):
        written.clear()
        assert run(["--config", str(config), "--all"], fetch=provider.fetch) == 0
        saved = sorted(str(path) for path in (tmp_path / "files-harvester").iterdir())
        assert len(saved) > 1
        assert sorted(path for path in written if path in saved) == saved
    capsys.readouterr()


def saved_responses(config: Path) -> list[str]:
    """The names of the files under the run's ``[harvester] filespath``."""
    return sorted(path.name for path in (config.parent / "files-harvester").iterdir())


def test_a_shorter_harvest_leaves_no_response_of_a_longer_one(tmp_path, capsys):
    config = make_config_file(tmp_path)
    responses = ["000001.xml", "000002.xml", "000003.xml"]
    assert run(["--config", str(config), "--all"], fetch=build_provider().fetch) == 0
    assert saved_responses(config) == responses
    # One ListRecords page: this run saves one response.
    shorter = build_provider(page_size=1000).fetch
    assert run(["--config", str(config), "-h"], fetch=shorter) == 0
    assert saved_responses(config) == responses[:1]
    replay = oai.replay_fetcher(str(tmp_path / "files-harvester"))
    first = "http://mock/oai?verb=ListRecords&metadataPrefix=junii2"
    assert replay(first) == shorter(first)
    with pytest.raises(TransportError):
        replay("second")

    # A harvest that fails keeps only the responses it saved, and every
    # file with another name.
    provider = build_provider()
    assert run(["--config", str(config), "-h"], fetch=provider.fetch) == 0
    assert saved_responses(config) == responses
    others = ["0000004.xml", "000004.txt", "000004.xml.bak", "notes.xml"]
    for name in others:
        (tmp_path / "files-harvester" / name).write_text("kept")
    requests = []

    def failing(url):
        requests.append(url)
        if len(requests) > 1:
            raise TransportError(url, 1, status=404)
        return provider.fetch(url)

    assert run(["--config", str(config), "-h"], fetch=failing) == 1
    assert saved_responses(config) == sorted([*responses[:1], *others])
    capsys.readouterr()


def test_a_prune_that_fails_rolls_the_harvest_back(tmp_path, capsys):
    # A directory with a saved response's name cannot be removed; the
    # harvest then ends with an i/o error and leaves the earlier run's
    # rows, BHT tree and statistics as they were.
    config = make_config_file(tmp_path)
    assert run(["--config", str(config), "--all"], fetch=build_provider().fetch) == 0
    previous = harvest_outputs(config)
    assert harvested_row_counts(config)[0] > 1
    (tmp_path / "files-harvester" / "000009.xml").mkdir()
    one = one_page_fetch(("oai:mock:1", article("New One", "5", ["Jane Doe"])))
    capsys.readouterr()
    assert run(["--config", str(config), "-h"], fetch=one) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert harvest_outputs(config) == previous


def test_a_response_that_cannot_be_saved_ends_the_harvest_at_once(
    tmp_path, capsys, monkeypatch
):
    # Saving is no network failure: the first response that cannot be
    # saved ends -h with an i/o error, and is neither fetched again nor
    # waited for.
    config = make_config_file(tmp_path)
    assert run(["--config", str(config), "-d", "-e"]) == 0
    (tmp_path / "files-harvester").mkdir()
    dangling = tmp_path / "files-harvester" / "000001.xml"
    dangling.symlink_to(tmp_path / "missing" / "000001.xml")
    provider = build_provider()
    requests = []

    def fetch(url):
        requests.append(url)
        return provider.fetch(url)

    sleeps = []
    monkeypatch.setattr(oai.time, "sleep", sleeps.append)
    capsys.readouterr()
    assert run(["--config", str(config), "-h"], fetch=fetch) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("i/o error:")
    assert len(requests) == 1
    assert sleeps == []


def test_an_empty_filespath_saves_and_removes_no_response(tmp_path, capsys):
    config = make_config_file(tmp_path)
    responses = ["000001.xml", "000002.xml", "000003.xml"]
    assert run(["--config", str(config), "--all"], fetch=build_provider().fetch) == 0
    saved = {
        name: (tmp_path / "files-harvester" / name).read_bytes() for name in responses
    }
    config.write_text(
        config.read_text().replace("filespath=./files-harvester\n", "filespath=\n")
    )
    # One ListRecords page, which a saving run would write as 000001.xml
    # and then remove the other two.
    shorter = build_provider(page_size=1000).fetch
    assert run(["--config", str(config), "-h"], fetch=shorter) == 0
    assert sorted(path.name for path in tmp_path.rglob("*.xml")) == responses
    assert {
        name: (tmp_path / "files-harvester" / name).read_bytes() for name in responses
    } == saved
    capsys.readouterr()


def test_failed_harvest_leaves_no_file_without_a_row(tmp_path, capsys):
    config = make_config_file(tmp_path)
    provider = build_provider()
    assert run(["--config", str(config), "--all"], fetch=provider.fetch) == 0
    previous = harvest_outputs(config)
    assert previous[0]
    requests = []

    def failing(url):
        requests.append(url)
        if len(requests) > 1:
            raise TransportError(url, 1, status=404)
        return provider.fetch(url)

    assert run(["--config", str(config), "-h"], fetch=failing) == 1
    assert harvest_outputs(config) == previous
    assert run(["--config", str(config), "-b"]) == 0
    assert harvest_outputs(config) == previous
    capsys.readouterr()


def test_truncated_http_response_fails_the_harvest_without_a_traceback(
    tmp_path, capsys, monkeypatch
):
    config = make_config_file(tmp_path)
    provider = build_provider()
    assert run(["--config", str(config), "--all"], fetch=provider.fetch) == 0
    previous = harvest_outputs(config)
    assert previous[0]
    config.write_text(
        config.read_text().replace(
            "[harvester]\n", "[harvester]\nendpoint=http://example.org/oai\n"
        )
    )
    requests = []

    class Truncated(io.BytesIO):
        def read(self, *args):
            raise http.client.IncompleteRead(b"<OAI-PMH", 100)

    def urlopen(request, timeout):
        requests.append(request.full_url)
        if len(requests) > 1:
            return Truncated()
        return io.BytesIO(provider.fetch(request.full_url))

    monkeypatch.setattr(oai.urllib.request, "urlopen", urlopen)
    monkeypatch.setattr(oai.time, "sleep", lambda seconds: None)
    assert run(["--config", str(config), "-h"]) == 1
    assert "error: fetch failed after 3 attempts" in capsys.readouterr().err
    assert len(requests) == 4
    assert harvest_outputs(config) == previous


def test_export_that_fails_leaves_only_the_files_it_wrote(tmp_path, capsys):
    config = make_config_file(tmp_path)

    def records(title: str):
        report = junii2_payload(
            titles=[(f"{title} Two", "en")], creators=["John Roe"],
            publication_type="Technical Report", volume="1", language="eng",
        )
        return one_page_fetch(
            ("oai:mock:1", article(f"{title} One", "5", ["Jane Doe"])),
            ("oai:mock:2", report),
            ("oai:mock:3", article(f"{title} Three", "6", ["Jane Doe"])),
        )

    assert run(["--config", str(config), "--all"], fetch=records("Old")) == 0
    root = tmp_path / "bht"
    assert sorted(written_bht(root)) == [
        "journal-article/volume-5/1.bht",
        "journal-article/volume-6/3.bht",
        "technical-report/volume-1/2.bht",
    ]
    # A regular file where the second record's type directory goes.
    shutil.rmtree(root / "technical-report")
    (root / "technical-report").write_text("in the way\n")
    capsys.readouterr()

    assert run(["--config", str(config), "-h"], fetch=records("New")) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    # The rows are committed; the files left are the ones written from them,
    # and the third record's stale file is gone.
    files = written_bht(root)
    assert list(files) == ["journal-article/volume-5/1.bht"]
    assert "New One" in files["journal-article/volume-5/1.bht"]
    assert harvested_row_counts(config) == [3, 3, 3]
    assert (root / "technical-report").read_text() == "in the way\n"

    (root / "technical-report").unlink()
    assert run(["--config", str(config), "-h"], fetch=records("New")) == 0
    assert len(written_bht(root)) == 3


def test_statistics_that_cannot_be_written_leave_no_file_of_the_replaced_rows(
    tmp_path, capsys
):
    config = make_config_file(tmp_path)
    old = one_page_fetch(("oai:mock:1", article("Old One", "5", ["Jane Doe"])))
    new = one_page_fetch(("oai:mock:1", article("New One", "5", ["Jane Doe"])))
    assert run(["--config", str(config), "-d", "-e", "-h"], fetch=old) == 0
    statistics = tmp_path / "log" / "statistics.json"
    statistics.unlink()
    statistics.mkdir()
    capsys.readouterr()

    # The harvest commits; the export then fails before its first file.
    assert run(["--config", str(config), "-h"], fetch=new) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert harvested_row_counts(config) == [1, 1, 1]
    assert written_bht(tmp_path / "bht") == {}

    statistics.rmdir()
    assert run(["--config", str(config), "-h"], fetch=new) == 0
    capsys.readouterr()
    assert "New One" in written_bht(tmp_path / "bht")["journal-article/volume-5/1.bht"]


@contextmanager
def progress_handler(handler):
    """Each store opened in the block calls ``handler`` at every virtual
    machine instruction; a true result interrupts the running statement."""
    open_store = SqliteStore.__init__

    def opened(self, config):
        open_store(self, config)
        self.connection.set_progress_handler(handler, 1)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SqliteStore, "__init__", opened)
        yield


def test_sql_interrupted_anywhere_in_a_harvest_leaves_store_and_tree_agreeing(
    tmp_path, capsys
):
    previous = one_page_fetch(
        ("oai:mock:1", article("Old One", "5", ["Jane Doe"])),
        ("oai:mock:2", article("Old Two", "7", ["John Roe"])),
    )
    title = "A Study on Duplicate Detection in Bibliographies"
    fetch = one_page_fetch(
        ("oai:mock:1", article("New One", "5", ["Jane Doe"])),
        ("oai:mock:2", article(title, "6", ["Hiroshi Tanaka"])),
        ("oai:mock:3", article("New Three", "6", ["Shinsuke Mori", "Graham Neubig"])),
        ("oai:mock:4", article("New Four", "8", ["Yuuta Tsuboi", "Shinsuke Mori"])),
    )
    start = tmp_path / "start"
    start.mkdir()
    config = make_config_file(start)
    assert run(["--config", str(config), "-d", "-e", "-h"], fetch=previous) == 0
    before = harvest_outputs(config)

    def copy(name: str) -> Path:
        shutil.copytree(start, tmp_path / name)
        return tmp_path / name / config.name

    # An uninterrupted -h, counting its instructions up to the export phase
    # and in all.
    clean = copy("clean")
    steps = [0]
    stage_export = pipeline.stage_export

    def counted_export(*args):
        steps.append(steps[0])
        return stage_export(*args)

    def count():
        steps[0] += 1
        return False

    with progress_handler(count), pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "stage_export", counted_export)
        assert run(["--config", str(clean), "-h"], fetch=fetch) == 0
    total, export_start = steps
    after = harvest_outputs(clean)
    assert after[1] != before[1]
    capsys.readouterr()

    # Abort points spread over both phases, the last instruction included.
    points = sorted(
        {1 + n * (export_start - 1) // 8 for n in range(8)}
        | {export_start + 1 + n * (total - export_start - 1) // 5 for n in range(6)}
    )
    outcomes = []
    for point in points:
        interrupted = copy(f"abort-{point}")
        steps = [0]

        def abort():
            steps[0] += 1
            return steps[0] == point

        with progress_handler(abort):
            assert run(["--config", str(interrupted), "-h"], fetch=fetch) == 1
        out, err = capsys.readouterr()
        assert err == "error: interrupted\n"
        assert "Traceback" not in out
        tree, rows, _ = harvest_outputs(interrupted)
        assert rows in (before[1], after[1])
        committed = before if rows == before[1] else after
        outcomes.append(committed is after)
        # Each single-publication file is the one its committed row gives.
        for path, data in tree.items():
            assert committed[0][path] == data, (point, path)

        assert run(["--config", str(interrupted), "-h"], fetch=fetch) == 0
        capsys.readouterr()
        assert harvest_outputs(interrupted) == after
    assert False in outcomes and True in outcomes


def names_state(config: Path) -> list:
    """The dictionary table's rows."""
    with SqliteStore(parse_config(str(config))) as opened:
        return opened.connection.execute(f"SELECT * FROM {opened.names}").fetchall()


def test_sql_interrupted_anywhere_in_d_or_e_keeps_the_previous_tables(
    tmp_path, capsys
):
    start = tmp_path / "start"
    start.mkdir()
    config = make_config_file(start)
    assert run(["--config", str(config), "-d", "-e"]) == 0
    before = corpus_state(config), names_state(config)
    # New inputs for the runs below: three-author articles, and half the
    # dictionary.
    corpus = start / "new.xml"
    corpus.write_bytes(
        corpus_document([("Ann", "Bo", "Cy"), ("Bo", "Cy", "Di"), ("Di", "Ed", "Ann")])
    )
    names = start / "names.txt"
    lines = (FIXTURES / "names_fixture.txt").read_text(encoding="utf-8").splitlines()
    names.write_text("\n".join(lines[:20]) + "\n", encoding="utf-8")
    config.write_text(
        config.read_text()
        .replace(str(FIXTURES / "corpus_fixture.xml"), str(corpus))
        .replace(str(FIXTURES / "names_fixture.txt"), str(names))
    )

    def copy(name: str) -> Path:
        shutil.copytree(start, tmp_path / name)
        return tmp_path / name / config.name

    def state(config: Path) -> tuple:
        return corpus_state(config), names_state(config)

    steps = [0]

    def count():
        steps[0] += 1
        return False

    def marked(name: str):
        # ``name`` that notes the instruction count when it begins and ends.
        method = getattr(SqliteStore, name)

        def counted(*args):
            steps.append(steps[0])
            try:
                return method(*args)
            finally:
                steps.append(steps[0])

        return name, counted

    # An uninterrupted -d and -e, each counting its instructions in all and
    # up to and past its inserts and its commit.
    clean = copy("clean")
    with progress_handler(count), pytest.MonkeyPatch.context() as patch:
        for name in (
            "add_corpus_publications",
            "add_coauthor_edges",
            "add_name_records",
            "flush",
        ):
            patch.setattr(SqliteStore, *marked(name))
        assert run(["--config", str(clean), "-d"]) == 0
        total, insert_start, insert_end, edges_start, edges_end, commit, _ = steps
        steps = [0]
        assert run(["--config", str(clean), "-e"]) == 0
        names_total, names_start, names_end, _, _ = steps
    after = state(clean)
    assert after[0][1:] != before[0][1:] and after[1] != before[1]
    capsys.readouterr()

    def spread(first: int, last: int, count: int) -> set[int]:
        return {first + n * (last - first) // (count - 1) for n in range(count)}

    # The edge INSERT ... SELECT follows the insert, and the title index the
    # edges.  SQLite's last progress call of a statement comes after the
    # statement has run, so aborting the COMMIT there reports "interrupted"
    # for a commit that took effect: the sweep stops one instruction short.
    assert insert_start < insert_end == edges_start < edges_end < commit < total
    sweeps = {
        "-d": sorted(
            spread(1, insert_start, 2)
            | spread(insert_start + 1, insert_end, 3)
            | spread(edges_start + 1, edges_end, 3)
            | spread(edges_end + 1, commit, 3)
            | spread(commit + 1, total - 1, 2)
        ),
        "-e": sorted(
            spread(1, names_start, 2)
            | spread(names_start + 1, names_end, 3)
            | spread(names_end + 1, names_total - 1, 2)
        ),
    }
    for flag, points in sweeps.items():
        for point in points:
            interrupted = copy(f"abort{flag}-{point}")
            steps = [0]

            def abort():
                steps[0] += 1
                return steps[0] == point

            with progress_handler(abort):
                assert run(["--config", str(interrupted), flag]) == 1, (flag, point)
            out, err = capsys.readouterr()
            assert err == "error: interrupted\n"
            assert "Traceback" not in out
            assert state(interrupted) == before, (flag, point)
            assert run(["--config", str(interrupted), "-d", "-e"]) == 0
            capsys.readouterr()
            assert state(interrupted) == after


def test_export_refuses_a_path_outside_the_bht_root(tmp_path, capsys, monkeypatch):
    config = make_config_file(tmp_path)
    fetch = one_page_fetch(("oai:mock:1", article("Title", "5", ["Jane Doe"])))
    monkeypatch.setattr(bht, "spf_relative_path", lambda publication: "../out.bht")
    assert run(["--config", str(config), "--all"], fetch=fetch) == 4
    assert "leaves" in capsys.readouterr().err
    assert not (tmp_path / "out.bht").exists()
    assert harvested_row_counts(config) == [1, 1, 1]


def test_run_concatenate_finishes_the_other_directories_then_fails(tmp_path, capsys):
    config = make_config_file(tmp_path)
    root = tmp_path / "bht"
    for directory in ("a", "b", "c"):
        (root / directory).mkdir(parents=True)
        (root / directory / "1.bht").write_text(f"{directory}\n")
    (root / "b" / "all.bht").mkdir()
    (root / "b" / "all.bht" / "keep").write_text("not empty\n")

    assert run(["--config", str(config), "-b"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: cannot concatenate in ")
    assert err.count("\n") == 1
    assert (root / "a" / "all.bht").read_text() == "a\n"
    assert (root / "c" / "all.bht").read_text() == "c\n"


@pytest.mark.parametrize("display, warnings", [(True, 1), (False, 0)])
def test_run_warns_that_match_threshold_zero_empties_the_coauthor_display(
    tmp_path, capsys, display, warnings
):
    config = make_config_file(tmp_path) if display else coauthor_display_off(tmp_path)
    config.write_text(
        config.read_text().replace("[bhtexport]\n", "[bhtexport]\nmatchthreshold=0\n")
    )
    provider = build_provider()
    assert run(["--config", str(config), "--all"], fetch=provider.fetch) == 0
    capsys.readouterr()
    [log_file] = (tmp_path / "log").glob("run-*.log")
    lines = [
        line for line in log_file.read_text().splitlines() if "matchthreshold" in line
    ]
    assert len(lines) == warnings
    for line in lines:
        assert " WARNING " in line
        assert "common-coauthor display will be empty" in line
