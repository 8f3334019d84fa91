"""Embedded tabular persistence for dictionary, corpus and harvest data.

A single SQLite file holds every relation under fixed table names:
``japnames`` for the dictionary, ``dblp`` and ``dblpauthors`` for the
corpus, and ``oai_publications``, ``oai_authors`` and the text tables
``oai_titles``, ``oai_contributors`` and ``oai_descriptions`` for the
harvest.  The text tables share one definition: a row is one text of a
publication, its position and its language tag.  The harvest columns are
declared once, in ``SqliteStore.publication_fields`` and
``SqliteStore.child_columns``; the inserts, reads and deletes are built
from them, and only the CREATE TABLE statements repeat them, with types.
``replace_names``, ``replace_corpus`` and ``replace_harvest`` each drop,
recreate and fill their tables in one transaction, so a load or harvest
that fails partway leaves the previous tables and their index as they
were.  A harvested identifier that arrives again replaces its earlier
rows and keeps its publication id; ``harvested`` reads the publications
back in id order.

Each connection registers the SQL function ``jpbib_title``, which is
``dblp.normalize_title``.  The index ``dblp_title`` on
``dblp(jpbib_title(title))`` answers the harvest's title lookups;
``replace_corpus`` creates it after its inserts, and -h creates it in a
store written before the index existed.  A connection that has not
registered the function, such as the ``sqlite3`` shell, can still read
``dblp``, but its ``INSERT`` into ``dblp`` and its ``PRAGMA
integrity_check`` fail with "unknown function: jpbib_title()".
Expression indexes need SQLite 3.9.0 or later.
"""

import json
import os
import sqlite3
from contextlib import contextmanager
from itertools import combinations, islice
from typing import ContextManager, Iterable, Iterator

from .config import Config
from .dblp import (
    CoauthorEdge,
    Coauthors,
    CorpusPublication,
    CorpusStore,
    coauthor_edges,
    normalize_title,
)
from .enamdict import NameRecord, NameType
from .matching import AuthorResolution, NameStatus, PersonName
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
# json.dumps(value, ensure_ascii=False) for -d's author lists and -h's
# name candidates, without a new encoder per call.
_to_json = json.JSONEncoder(ensure_ascii=False).encode
# Publications per replace_corpus insert.  On the ingest-scale benchmark 10
# and 1000 gave the same setup time within run-to-run spread, and 10 a
# 0.2 MiB higher peak (CHANGES.md).
CORPUS_BATCH = 100


def _resolution_row(resolution: AuthorResolution) -> tuple:
    """The ``oai_authors`` columns after the raw names that store
    ``resolution``; ``_resolution`` reads them back."""
    latin, kanji = resolution.latin, resolution.kanji
    return (
        latin.given if latin else None,
        latin.family if latin else None,
        kanji.given if kanji else None,
        kanji.family if kanji else None,
        resolution.status.value,
        _to_json([[c.given, c.family] for c in resolution.candidates]),
    )


def _resolution(
    latin_given, latin_family, kanji_given, kanji_family, status, candidates
) -> AuthorResolution:
    """The resolution that ``add_harvested`` stored as these columns."""
    return AuthorResolution(
        None if latin_given is None else PersonName(latin_given, latin_family),
        None if kanji_given is None else PersonName(kanji_given, kanji_family),
        [PersonName(*pair) for pair in json.loads(candidates)],
        NameStatus(status),
    )


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
    # Filled from a publication's titles, contributors and descriptions.
    text_tables = (titles, contributors, descriptions)
    # The HarvestedPublication fields that oai_publications holds between
    # its id and dblp_key columns, in column order.
    publication_fields = (
        "identifier publication_type date volume number pages language source_url"
    ).split()
    _publication_columns = ", ".join(("id", *publication_fields, "dblp_key"))
    # The columns of each table that holds a publication's authors or texts,
    # after publication_id and position.  An author row is the creator's raw
    # (latin, kanji) pair followed by ``_resolution_row``.
    child_columns = {
        authors: (
            "latin_raw kanji_raw latin_given latin_family kanji_given kanji_family "
            "status candidates"
        ).split(),
        **dict.fromkeys(text_tables, ("text", "lang")),
    }
    title_index = "dblp_title"
    child_indexes = {table: f"{table}_publication_id" for table in child_columns}
    _title_index_sql = (
        f"CREATE INDEX IF NOT EXISTS {title_index} ON {dblp} (jpbib_title(title))"
    )

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

    @contextmanager
    def _replacing(self, schema: str) -> Iterator[None]:
        """One transaction for ``schema`` (its tables' DROP and CREATE) and
        the block's inserts.  It commits when the block ends and rolls back
        on any exception, so a failed load leaves the previous tables and
        indexes as they were, or no tables on a store that had none."""
        try:
            # The script's own BEGIN keeps its DROP and CREATE uncommitted.
            self.connection.executescript("BEGIN;" + schema)
            yield
        except BaseException:
            self.connection.rollback()
            raise
        self.flush()

    # -- dictionary names ---------------------------------------------------

    def replace_names(self, records: Iterable[NameRecord]) -> int:
        """Replace the dictionary table with ``records``; returns their count."""
        with self._replacing(
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
        ):
            return self.add_name_records(records)

    def add_name_records(self, records: Iterable[NameRecord]) -> int:
        sql = (
            f"INSERT INTO {self.names} (surface, reading, latin, types) "
            "VALUES (?, ?, ?, ?)"
        )
        return self.connection.executemany(
            sql,
            (
                (r.surface, r.reading, r.latin, _TYPE_CODES[r.types])
                for r in records
            ),
        ).rowcount

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

    def replace_corpus(
        self, publications: Iterable[CorpusPublication]
    ) -> tuple[int, int]:
        """Replace both corpus tables and the title index with ``publications``
        and their coauthor edges, inserted ``CORPUS_BATCH`` publications at a
        time as they arrive.  Returns the publication and edge counts."""
        publications = iter(publications)
        stored = edges = 0
        # -h reads the coauthor adjacency from the edge table alone.
        with self._replacing(
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
        ):
            while batch := list(islice(publications, CORPUS_BATCH)):
                stored += self.add_corpus_publications(batch)
                edges += self.add_coauthor_edges(coauthor_edges(batch))
            self.connection.execute(self._title_index_sql)
        return stored, edges

    def add_corpus_publications(self, rows: Iterable[CorpusPublication]) -> int:
        sql = (
            f"INSERT INTO {self.dblp} "
            "(id, key, authors, title, year, journal, pages, volume) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
        )
        return self.connection.executemany(
            sql,
            (
                (
                    p.id,
                    p.key,
                    _to_json(p.authors),
                    p.title,
                    p.year,
                    p.journal,
                    p.pages,
                    p.volume,
                )
                for p in rows
            ),
        ).rowcount

    def add_coauthor_edges(self, rows: Iterable[CoauthorEdge]) -> int:
        sql = (
            f"INSERT INTO {self.edges} (author_a, author_b, publication_id) "
            "VALUES (?, ?, ?)"
        )
        return self.connection.executemany(sql, rows).rowcount

    def create_title_index(self) -> None:
        """Index ``dblp`` by normalised title, unless it already is."""
        with self.connection:
            self.connection.execute(self._title_index_sql)

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

    def replace_harvest(self) -> ContextManager[None]:
        """A block that refills the five harvest tables in one transaction:
        a harvest that fails keeps the previous run's rows."""
        text_tables = "".join(
            f"""
            DROP TABLE IF EXISTS {table};
            CREATE TABLE {table} (
                id INTEGER PRIMARY KEY,
                publication_id INTEGER NOT NULL,
                position INTEGER NOT NULL,
                text TEXT NOT NULL,
                lang TEXT NOT NULL
            );"""
            for table in self.text_tables
        )
        # remove_harvested deletes a repeated identifier's child rows by
        # publication_id; without these, each repeat scans the whole table.
        child_indexes = "".join(
            f"CREATE INDEX {index} ON {table} (publication_id);"
            for table, index in self.child_indexes.items()
        )
        return self._replacing(
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
            );{text_tables}
            {child_indexes}
            """
        )

    def remove_harvested(self, identifier: str) -> int | None:
        """Delete the publication stored under ``identifier``, if any,
        with its author, title, contributor and description rows; returns
        the id it had."""
        earlier = self.connection.execute(
            f"SELECT id FROM {self.publications} WHERE identifier=?",
            (identifier,),
        ).fetchone()
        if earlier is None:
            return None
        for table in self.child_columns:
            self.connection.execute(
                f"DELETE FROM {table} WHERE publication_id=?", earlier
            )
        self.connection.execute(f"DELETE FROM {self.publications} WHERE id=?", earlier)
        return earlier[0]

    def add_harvested(
        self,
        publication: HarvestedPublication,
        resolutions: list[AuthorResolution],
        dblp_key: str | None = None,
        publication_id: int | None = None,
    ) -> int:
        """Store a publication whose identifier is not stored yet, under
        ``publication_id`` or else the next free id; returns the id.  A new
        copy of a stored one goes in after ``remove_harvested``."""
        cursor = self.connection.execute(
            f"INSERT INTO {self.publications} ({self._publication_columns}) "
            f"VALUES ({', '.join('?' * (len(self.publication_fields) + 2))})",
            (
                publication_id,
                *(getattr(publication, name) for name in self.publication_fields),
                dblp_key,
            ),
        )
        publication_id = cursor.lastrowid
        children = (
            [
                (*creator, *_resolution_row(resolution))
                for creator, resolution in zip(publication.creators, resolutions)
            ],
            publication.titles,
            publication.contributors,
            publication.descriptions,
        )
        for (table, columns), rows in zip(self.child_columns.items(), children):
            self.connection.executemany(
                f"INSERT INTO {table} (publication_id, position, {', '.join(columns)}) "
                f"VALUES ({', '.join('?' * (len(columns) + 2))})",
                [(publication_id, position, *row) for position, row in enumerate(rows)],
            )
        return publication_id

    def harvested(
        self,
    ) -> Iterator[tuple[HarvestedPublication, list[AuthorResolution], str | None]]:
        """Each stored publication in id order, with its author resolutions
        and corpus key, as ``add_harvested`` received them.  The rows are
        read as the items are taken, one publication's worth at a time."""
        publications = self.connection.execute(
            f"SELECT {self._publication_columns} FROM {self.publications} ORDER BY id"
        )
        cursors = [
            self.connection.execute(
                f"SELECT publication_id, {', '.join(columns)} FROM {table} "
                "ORDER BY publication_id, position"
            )
            for table, columns in self.child_columns.items()
        ]
        # Each cursor's next row, read one ahead; (None,) once it has ended.
        heads = [next(cursor, (None,)) for cursor in cursors]
        for publication_id, *values, dblp_key in publications:
            children = []
            for index, cursor in enumerate(cursors):
                rows = []
                while heads[index][0] == publication_id:
                    rows.append(heads[index][1:])
                    heads[index] = next(cursor, (None,))
                children.append(rows)
            authors, titles, contributors, descriptions = children
            yield (
                HarvestedPublication(
                    **dict(zip(self.publication_fields, values)),
                    titles=titles,
                    creators=[author[:2] for author in authors],
                    contributors=contributors,
                    descriptions=descriptions,
                ),
                [_resolution(*author[2:]) for author in authors],
                dblp_key,
            )

    def flush(self) -> None:
        self.connection.commit()
