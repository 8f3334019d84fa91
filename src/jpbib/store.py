"""Embedded tabular persistence for dictionary, corpus and harvest data.

A single SQLite file holds every relation under fixed table names:
``japnames`` for the dictionary, ``dblp`` and ``dblpauthors`` for the
corpus, and ``oai_publications``, ``oai_authors``, ``oai_titles``,
``oai_contributors`` and ``oai_descriptions`` for the harvest.  Each
bulk load is one transaction, so a load that fails partway leaves its
table empty rather than truncated.  A harvested identifier that arrives
again replaces its earlier rows.

Each connection registers the SQL function ``jpbib_title``, which is
``dblp.normalize_title``.  The index ``dblp_title`` on
``dblp(jpbib_title(title))`` answers the harvest's title lookups; -d
creates it after its bulk insert, and -h creates it in a store
written before the index existed.  A connection that has not registered the
function, such as the ``sqlite3`` shell, can still read ``dblp``, but
its ``INSERT`` into ``dblp`` and its ``PRAGMA integrity_check`` fail
with "unknown function: jpbib_title()".  Expression indexes need
SQLite 3.9.0 or later.
"""

import json
import os
import sqlite3
from itertools import combinations
from typing import Iterable

from .config import Config
from .dblp import CoauthorEdge, Coauthors, CorpusPublication, CorpusStore, normalize_title
from .enamdict import NameRecord, NameType
from .matching import AuthorResolution
from .oai import HarvestedPublication

__all__ = ["SqliteStore"]


# The stored code string of every set of name types, codes in NameType
# order, and back: one dict hit per row instead of an enum scan.
_TYPE_CODES = {
    frozenset(types): "".join(t.value for t in types)
    for size in range(len(NameType) + 1)
    for types in combinations(NameType, size)
}
_CODE_TYPES = {codes: types for types, codes in _TYPE_CODES.items()}


class SqliteStore:
    """All pipeline relations in one embedded database file."""

    names = "japnames"
    dblp = "dblp"
    edges = "dblpauthors"
    publications = "oai_publications"
    authors = "oai_authors"
    titles = "oai_titles"
    contributors = "oai_contributors"
    descriptions = "oai_descriptions"
    title_index = "dblp_title"

    def __init__(self, config: Config):
        path = config.store_path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self.connection = sqlite3.connect(path)
        self.connection.create_function(
            "jpbib_title", 1, normalize_title, deterministic=True
        )

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _has_rows(self, table: str) -> bool:
        """Whether ``table`` exists and holds at least one row."""
        exists = self.connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name=?", (table,)
        ).fetchone()
        return (
            exists is not None
            and self.connection.execute(f"SELECT 1 FROM {table} LIMIT 1").fetchone()
            is not None
        )

    def _bulk_insert(self, sql: str, rows: Iterable[tuple]) -> int:
        # One transaction: an error partway rolls back every row.
        with self.connection:
            return self.connection.executemany(sql, rows).rowcount

    # -- dictionary names ---------------------------------------------------

    def create_names_table(self) -> None:
        self.connection.executescript(
            f"""
            DROP TABLE IF EXISTS {self.names};
            CREATE TABLE {self.names} (
                id INTEGER PRIMARY KEY,
                surface TEXT NOT NULL,
                reading TEXT,
                latin TEXT NOT NULL,
                types TEXT NOT NULL
            );
            """
        )

    def add_name_records(self, records: Iterable[NameRecord]) -> int:
        sql = (
            f"INSERT INTO {self.names} (surface, reading, latin, types) "
            "VALUES (?, ?, ?, ?)"
        )
        return self._bulk_insert(
            sql,
            (
                (r.surface, r.reading, r.latin, _TYPE_CODES[r.types])
                for r in records
            ),
        )

    def load_name_records(self) -> list[NameRecord]:
        rows = self.connection.execute(
            f"SELECT surface, reading, latin, types FROM {self.names} ORDER BY id"
        ).fetchall()
        return [
            NameRecord(surface, reading, latin, _CODE_TYPES[types])
            for surface, reading, latin, types in rows
        ]

    def has_names(self) -> bool:
        return self._has_rows(self.names)

    # -- corpus ---------------------------------------------------------------

    def create_corpus_tables(self) -> None:
        # -h reads the coauthor adjacency from the edge table alone.
        self.connection.executescript(
            f"""
            DROP TABLE IF EXISTS {self.dblp};
            CREATE TABLE {self.dblp} (
                id INTEGER PRIMARY KEY,
                key TEXT NOT NULL UNIQUE,
                authors TEXT NOT NULL,
                title TEXT NOT NULL,
                year INTEGER,
                journal TEXT,
                pages TEXT,
                volume TEXT
            );
            DROP TABLE IF EXISTS {self.edges};
            CREATE TABLE {self.edges} (
                id INTEGER PRIMARY KEY,
                author_a TEXT NOT NULL,
                author_b TEXT NOT NULL,
                publication_id INTEGER NOT NULL
            );
            """
        )

    def add_corpus_publications(self, rows: Iterable[CorpusPublication]) -> int:
        sql = (
            f"INSERT INTO {self.dblp} "
            "(id, key, authors, title, year, journal, pages, volume) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
        )
        return self._bulk_insert(
            sql,
            (
                (
                    p.id,
                    p.key,
                    json.dumps(list(p.authors), ensure_ascii=False),
                    p.title,
                    p.year,
                    p.journal,
                    p.pages,
                    p.volume,
                )
                for p in rows
            ),
        )

    def add_coauthor_edges(self, rows: Iterable[CoauthorEdge]) -> int:
        sql = (
            f"INSERT INTO {self.edges} (author_a, author_b, publication_id) "
            "VALUES (?, ?, ?)"
        )
        return self._bulk_insert(
            sql, ((e.author_a, e.author_b, e.publication_id) for e in rows)
        )

    def create_title_index(self) -> None:
        """Index ``dblp`` by normalised title, unless it already is."""
        with self.connection:
            self.connection.execute(
                f"CREATE INDEX IF NOT EXISTS {self.title_index} "
                f"ON {self.dblp} (jpbib_title(title))"
            )

    def publications_titled(self, title: str) -> list[tuple[str, tuple[str, ...]]]:
        """(key, authors) of each publication with the normalised title
        ``title``, in id order, as ``CorpusStore.publications_titled``."""
        return [
            (key, tuple(json.loads(authors)))
            for key, authors in self.connection.execute(
                f"SELECT key, authors FROM {self.dblp} "
                "WHERE jpbib_title(title) = ? ORDER BY id",
                (title,),
            )
        ]

    def load_coauthors(self) -> Coauthors:
        """The edge table's adjacency, filled in edge (parse) order."""
        sql = f"SELECT author_a, author_b FROM {self.edges} ORDER BY id"
        return Coauthors(self.connection.execute(sql))

    # No stage calls this.  Tests and perfbench/tracing.py still read it,
    # so it goes only in a later change to the benchmark.
    def load_corpus(self) -> CorpusStore:
        return CorpusStore(
            CorpusPublication(pid, key, tuple(json.loads(authors)), *rest)
            for pid, key, authors, *rest in self.connection.execute(
                f"SELECT id, key, authors, title, year, journal, pages, volume "
                f"FROM {self.dblp} ORDER BY id"
            )
        )

    def has_corpus(self) -> bool:
        return self._has_rows(self.dblp)

    # -- harvested publications -------------------------------------------

    def create_harvest_tables(self) -> None:
        self.connection.executescript(
            f"""
            DROP TABLE IF EXISTS {self.publications};
            CREATE TABLE {self.publications} (
                id INTEGER PRIMARY KEY,
                identifier TEXT NOT NULL UNIQUE,
                publication_type TEXT,
                date TEXT,
                volume TEXT,
                number TEXT,
                pages TEXT,
                language TEXT,
                source_url TEXT,
                dblp_key TEXT
            );
            DROP TABLE IF EXISTS {self.authors};
            CREATE TABLE {self.authors} (
                id INTEGER PRIMARY KEY,
                publication_id INTEGER NOT NULL,
                position INTEGER NOT NULL,
                latin_raw TEXT,
                kanji_raw TEXT,
                latin_given TEXT,
                latin_family TEXT,
                kanji_given TEXT,
                kanji_family TEXT,
                status TEXT NOT NULL,
                candidates TEXT NOT NULL
            );
            DROP TABLE IF EXISTS {self.titles};
            CREATE TABLE {self.titles} (
                id INTEGER PRIMARY KEY,
                publication_id INTEGER NOT NULL,
                position INTEGER NOT NULL,
                text TEXT NOT NULL,
                lang TEXT NOT NULL
            );
            DROP TABLE IF EXISTS {self.contributors};
            CREATE TABLE {self.contributors} (
                id INTEGER PRIMARY KEY,
                publication_id INTEGER NOT NULL,
                position INTEGER NOT NULL,
                text TEXT NOT NULL,
                lang TEXT NOT NULL
            );
            DROP TABLE IF EXISTS {self.descriptions};
            CREATE TABLE {self.descriptions} (
                id INTEGER PRIMARY KEY,
                publication_id INTEGER NOT NULL,
                position INTEGER NOT NULL,
                text TEXT NOT NULL,
                lang TEXT NOT NULL
            );
            """
        )

    def remove_harvested(self, identifier: str) -> None:
        """Delete the publication stored under ``identifier``, if any,
        with its author, title, contributor and description rows."""
        earlier = self.connection.execute(
            f"SELECT id FROM {self.publications} WHERE identifier=?",
            (identifier,),
        ).fetchone()
        if earlier is None:
            return
        for table in (
            self.authors,
            self.titles,
            self.contributors,
            self.descriptions,
        ):
            self.connection.execute(
                f"DELETE FROM {table} WHERE publication_id=?", earlier
            )
        self.connection.execute(f"DELETE FROM {self.publications} WHERE id=?", earlier)

    def add_harvested(
        self,
        publication: HarvestedPublication,
        resolutions: list[AuthorResolution],
        dblp_key: str | None = None,
    ) -> int:
        """Store a publication whose identifier is not stored yet; a new
        copy of a stored one goes in after ``remove_harvested``."""
        cursor = self.connection.execute(
            f"INSERT INTO {self.publications} "
            "(identifier, publication_type, date, volume, number, pages, "
            " language, source_url, dblp_key) VALUES (?,?,?,?,?,?,?,?,?)",
            (
                publication.identifier,
                publication.publication_type,
                publication.date,
                publication.volume,
                publication.number,
                publication.pages,
                publication.language,
                publication.source_url,
                dblp_key,
            ),
        )
        publication_id = cursor.lastrowid
        author_rows = []
        for position, ((latin_raw, kanji_raw), resolution) in enumerate(
            zip(publication.creators, resolutions)
        ):
            author_rows.append(
                (
                    publication_id,
                    position,
                    latin_raw,
                    kanji_raw,
                    resolution.latin.given if resolution.latin else None,
                    resolution.latin.family if resolution.latin else None,
                    resolution.kanji.given if resolution.kanji else None,
                    resolution.kanji.family if resolution.kanji else None,
                    resolution.status.value,
                    json.dumps(
                        [[c.given, c.family] for c in resolution.candidates],
                        ensure_ascii=False,
                    ),
                )
            )
        self.connection.executemany(
            f"INSERT INTO {self.authors} "
            "(publication_id, position, latin_raw, kanji_raw, latin_given, "
            " latin_family, kanji_given, kanji_family, status, candidates) "
            "VALUES (?,?,?,?,?,?,?,?,?,?)",
            author_rows,
        )
        for table, values in (
            (self.titles, publication.titles),
            (self.contributors, publication.contributors),
            (self.descriptions, publication.descriptions),
        ):
            self.connection.executemany(
                f"INSERT INTO {table} (publication_id, position, text, lang) "
                "VALUES (?,?,?,?)",
                [
                    (publication_id, position, text, lang)
                    for position, (text, lang) in enumerate(values)
                ],
            )
        return publication_id

    def flush(self) -> None:
        self.connection.commit()
