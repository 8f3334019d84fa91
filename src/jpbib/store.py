"""Embedded tabular persistence for dictionary, corpus and harvest data.

A single SQLite file holds every relation; table names come from the
configuration.  Each bulk load is one transaction, so a load that fails
partway leaves its table empty rather than truncated.  A harvested
identifier that arrives again replaces its earlier rows.
"""

import json
import os
import re
import sqlite3
from typing import Iterable

from .config import Config
from .dblp import CoauthorEdge, CorpusPublication, CorpusStore
from .enamdict import NameRecord, NameType
from .matching import AuthorResolution
from .oai import HarvestedPublication

__all__ = ["SqliteStore", "StoreError"]

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class StoreError(RuntimeError):
    pass


def _table(name: str) -> str:
    if not _IDENTIFIER_RE.match(name):
        raise StoreError(f"invalid table name {name!r}")
    return name


class SqliteStore:
    """All pipeline relations in one embedded database file."""

    def __init__(self, config: Config):
        self.config = config
        path = config.store_path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self.connection = sqlite3.connect(path)
        self.names = _table(config.japnames_table)
        self.dblp = _table(config.dblp_table)
        self.edges = _table(config.authors_count_table)
        self.publications = _table(config.publication_table)
        self.authors = _table(config.authors_table)
        self.titles = _table(config.titles_table)
        self.contributors = _table(config.contributors_table)
        self.descriptions = _table(config.descriptions_table)

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _has_table(self, name: str) -> bool:
        row = self.connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name=?", (name,)
        ).fetchone()
        return row is not None

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
            CREATE INDEX idx_{self.names}_latin ON {self.names}(latin);
            CREATE INDEX idx_{self.names}_surface ON {self.names}(surface);
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
                (
                    r.surface,
                    r.reading,
                    r.latin,
                    "".join(t.value for t in NameType if t in r.types),
                )
                for r in records
            ),
        )

    def load_name_records(self) -> list[NameRecord]:
        rows = self.connection.execute(
            f"SELECT surface, reading, latin, types FROM {self.names} ORDER BY id"
        ).fetchall()
        return [
            NameRecord(
                surface, reading, latin, frozenset(NameType(c) for c in types)
            )
            for surface, reading, latin, types in rows
        ]

    def has_names(self) -> bool:
        if not self._has_table(self.names):
            return False
        return (
            self.connection.execute(f"SELECT COUNT(*) FROM {self.names}").fetchone()[0]
            > 0
        )

    # -- corpus ---------------------------------------------------------------

    def create_corpus_tables(self) -> None:
        # The edge table is an output of -d for queries outside jpbib; the
        # harvest derives the adjacency from the publication rows instead.
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

    def load_corpus(self) -> CorpusStore:
        return CorpusStore(
            CorpusPublication(pid, key, tuple(json.loads(authors)), *rest)
            for pid, key, authors, *rest in self.connection.execute(
                f"SELECT id, key, authors, title, year, journal, pages, volume "
                f"FROM {self.dblp} ORDER BY id"
            )
        )

    def has_corpus(self) -> bool:
        if not self._has_table(self.dblp):
            return False
        return (
            self.connection.execute(f"SELECT COUNT(*) FROM {self.dblp}").fetchone()[0]
            > 0
        )

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
