"""Embedded tabular persistence for dictionary, corpus and harvest data.

A single SQLite file holds every relation under fixed table names:
``japnames`` for the dictionary, ``dblp`` and ``dblpauthors`` for the
corpus, and ``oai_publications``, ``oai_authors`` and the text tables
``oai_titles``, ``oai_contributors`` and ``oai_descriptions`` for the
harvest.  The text tables share one definition: a row is one text of a
publication, its position and its language tag.  Each table's columns are
declared once, with their types, in ``_TABLES``; its CREATE TABLE, its
insert and its read are built from that declaration.
``replace_names``, ``replace_corpus`` and ``replace_harvest`` each drop,
recreate and fill their tables in one transaction, so a load or harvest
that fails partway leaves the previous tables and their index as they
were.  ``replace_names`` and ``replace_corpus`` insert the records or
publications as an iterator yields them, and ``load_name_records``
decodes each row as it is read, so none holds the whole data set.
``replace_corpus`` then fills ``dblpauthors`` from the stored author lists
with one ``INSERT ... SELECT`` over ``json_each``.  A harvested identifier
that arrives again replaces its earlier rows and keeps its publication id;
``harvested`` reads the publications back in id order.

Each connection registers the SQL function ``jpbib_title``, which is
``dblp.normalize_title``.  The index ``dblp_title`` on
``dblp(jpbib_title(title))`` answers the harvest's title lookups;
``replace_corpus`` creates it after its inserts.  A store without the
index still answers them, by a scan of ``dblp``.  A connection that has
not registered the function, such as the ``sqlite3`` shell, can still read
``dblp``, but its ``INSERT`` into ``dblp`` and its ``PRAGMA
integrity_check`` fail with "unknown function: jpbib_title()".
Expression indexes need SQLite 3.9.0 or later, and ``json_each`` the JSON
functions, built in since SQLite 3.38.0.
"""

import json
import os
import sqlite3
from contextlib import contextmanager
from typing import ContextManager, Iterable, Iterator

from .config import Config
from .dblp import Coauthors, CorpusPublication, normalize_title
from .enamdict import TYPE_COMBINATIONS, NameRecord, NameType
from .matching import AuthorResolution, NameStatus, PersonName
from .oai import HarvestedPublication

__all__ = ["SqliteStore"]


# The stored code string of every combination of name types, codes in
# NameType order, and back to the parser's shared frozenset: one dict hit
# per row instead of an enum scan.
_TYPE_CODES = {
    types: "".join(t.value for t in NameType if t in types)
    for types in TYPE_COMBINATIONS
}
_CODE_TYPES = {codes: types for types, codes in _TYPE_CODES.items()}
# json.dumps(value, ensure_ascii=False) for -d's author lists and -h's
# name candidates, without a new encoder per call.
_to_json = json.JSONEncoder(ensure_ascii=False).encode


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


def _column_names(declared: str) -> list[str]:
    """The names in a column declaration such as ``"key TEXT, year INTEGER"``."""
    return [column.split()[0] for column in declared.split(", ")]


# Each table's columns after ``id INTEGER PRIMARY KEY``, in order, with their
# types and constraints.  The CREATE TABLE statements, the inserts and the
# reads are built from these.  A row of each of the last four tables is one
# author or text of a publication, at its position; an author row holds the
# creator's raw (latin, kanji) pair followed by ``_resolution_row``.
_CHILD = "publication_id INTEGER NOT NULL, position INTEGER NOT NULL, "
_TEXT = _CHILD + "text TEXT NOT NULL, lang TEXT NOT NULL"
_TABLES = {
    "japnames": "surface TEXT NOT NULL, reading TEXT, latin TEXT NOT NULL, "
    "types TEXT NOT NULL",
    "dblp": "key TEXT NOT NULL UNIQUE, authors TEXT NOT NULL, title TEXT NOT NULL, "
    "year INTEGER, journal TEXT, pages TEXT, volume TEXT",
    "dblpauthors": "author_a TEXT NOT NULL, author_b TEXT NOT NULL, "
    "publication_id INTEGER NOT NULL",
    "oai_publications": "identifier TEXT NOT NULL UNIQUE, publication_type TEXT, "
    "date TEXT, volume TEXT, number TEXT, pages TEXT, language TEXT, "
    "source_url TEXT, dblp_key TEXT",
    "oai_authors": _CHILD + "latin_raw TEXT, kanji_raw TEXT, latin_given TEXT, "
    "latin_family TEXT, kanji_given TEXT, kanji_family TEXT, "
    "status TEXT NOT NULL, candidates TEXT NOT NULL",
    "oai_titles": _TEXT,
    "oai_contributors": _TEXT,
    "oai_descriptions": _TEXT,
}


class SqliteStore:
    """All pipeline relations in one embedded database file."""

    # The table names, in declaration order.
    names, dblp, edges, publications, *child_tables = _TABLES
    authors, titles, contributors, descriptions = child_tables
    # Filled from a publication's titles, contributors and descriptions.
    text_tables = (titles, contributors, descriptions)
    # The columns that each table's insert writes and its read returns.  -d
    # and -h give each dblp and oai_publications row its id; SQLite numbers
    # the other tables' rows.
    _columns = {
        **{table: _column_names(declared) for table, declared in _TABLES.items()},
        dblp: ["id", *_column_names(_TABLES[dblp])],
        publications: ["id", *_column_names(_TABLES[publications])],
    }
    # The HarvestedPublication fields that oai_publications holds between
    # its id and dblp_key columns, in column order.
    publication_fields = _columns[publications][1:-1]
    _inserts = {
        table: f"INSERT INTO {table} ({', '.join(columns)}) "
        f"VALUES ({', '.join('?' * len(columns))})"
        for table, columns in _columns.items()
    }
    # A child table's rows in publication and position order, the others'
    # in id order.
    _selects = {
        table: f"SELECT {', '.join(columns)} FROM {table} ORDER BY "
        + ("publication_id, position" if _TABLES[table].startswith(_CHILD) else "id")
        for table, columns in _columns.items()
    }
    title_index = "dblp_title"
    child_indexes = {table: f"{table}_publication_id" for table in child_tables}
    # The author pairs (i < j) of each stored author list, skipping equal
    # names, in publication and pair order.  The CROSS JOINs fix the loop
    # order, so the ORDER BY needs no sort.
    _edges_sql = (
        f"INSERT INTO {edges} ({', '.join(_columns[edges])}) "
        f"SELECT a.value, b.value, {dblp}.id FROM {dblp} "
        f"CROSS JOIN json_each({dblp}.authors) AS a "
        f"CROSS JOIN json_each({dblp}.authors) AS b "
        f"WHERE a.key < b.key AND a.value <> b.value ORDER BY {dblp}.id"
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
    def _replacing(self, *tables: str) -> Iterator[None]:
        """One transaction that drops ``tables``, creates them as declared,
        each child table with its ``publication_id`` index, and runs the
        block's inserts.  It commits when the block ends and rolls back on
        any exception, so a failed load leaves the previous tables and
        indexes as they were, or no tables on a store that had none."""
        schema = "".join(
            f"DROP TABLE IF EXISTS {table};"
            f"CREATE TABLE {table} (id INTEGER PRIMARY KEY, {_TABLES[table]});"
            for table in tables
        )
        # remove_harvested deletes a repeated identifier's child rows by
        # publication_id; without these, each repeat scans the whole table.
        schema += "".join(
            f"CREATE INDEX {self.child_indexes[table]} ON {table} (publication_id);"
            for table in tables
            if table in self.child_indexes
        )
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
        with self._replacing(self.names):
            return self.add_name_records(records)

    def add_name_records(self, records: Iterable[NameRecord]) -> int:
        return self.connection.executemany(
            self._inserts[self.names],
            (
                (r.surface, r.reading, r.latin, _TYPE_CODES[r.types])
                for r in records
            ),
        ).rowcount

    # It returns a generator instead of being one: the query runs at the
    # call, and perfbench/tracing.py records one span for it, not one per row.
    def load_name_records(self) -> Iterator[NameRecord]:
        """The stored records in id order, each decoded from its row as the
        iterator is read."""
        return (
            NameRecord(surface, reading, latin, _CODE_TYPES[types])
            for surface, reading, latin, types in self.connection.execute(
                self._selects[self.names]
            )
        )

    def has_names(self) -> bool:
        return self._has_rows(self.names)

    # -- corpus ---------------------------------------------------------------

    def replace_corpus(
        self, publications: Iterable[CorpusPublication]
    ) -> tuple[int, int]:
        """Replace both corpus tables and the title index with ``publications``,
        inserted as they arrive, and the coauthor edges of their stored
        author lists.  Returns the publication and edge counts."""
        # -h reads the coauthor adjacency from the edge table alone.
        with self._replacing(self.dblp, self.edges):
            stored = self.add_corpus_publications(publications)
            edges = self.add_coauthor_edges()
            self.connection.execute(
                f"CREATE INDEX {self.title_index} ON {self.dblp} (jpbib_title(title))"
            )
        return stored, edges

    def add_corpus_publications(self, rows: Iterable[CorpusPublication]) -> int:
        return self.connection.executemany(
            self._inserts[self.dblp],
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

    def add_coauthor_edges(self) -> int:
        return self.connection.execute(self._edges_sql).rowcount

    def publications_titled(self, title: str) -> list[tuple[str, tuple[str, ...]]]:
        """(key, authors) of each publication with the normalised title
        ``title``, in id order, from the title index or else by a scan."""
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

    # No stage calls this; perfbench/tracing.py wraps it.  It goes with ROADMAP item 5.
    def load_corpus(self) -> list[CorpusPublication]:
        return [
            CorpusPublication(pid, key, tuple(json.loads(authors)), *rest)
            for pid, key, authors, *rest in self.connection.execute(
                self._selects[self.dblp]
            )
        ]

    def has_corpus(self) -> bool:
        return self._has_rows(self.dblp)

    # -- harvested publications -------------------------------------------

    def replace_harvest(self) -> ContextManager[None]:
        """A block that refills the five harvest tables in one transaction:
        a harvest that fails keeps the previous run's rows."""
        return self._replacing(self.publications, *self.child_tables)

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
        for table in self.child_tables:
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
            self._inserts[self.publications],
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
        for table, rows in zip(self.child_tables, children):
            self.connection.executemany(
                self._inserts[table],
                [(publication_id, position, *row) for position, row in enumerate(rows)],
            )
        return publication_id

    def harvested(
        self,
    ) -> Iterator[tuple[HarvestedPublication, list[AuthorResolution], str | None]]:
        """Each stored publication in id order, with its author resolutions
        and corpus key, as ``add_harvested`` received them.  The rows are
        read as the items are taken, one publication's worth at a time."""
        publications = self.connection.execute(self._selects[self.publications])
        cursors = [
            self.connection.execute(self._selects[table]) for table in self.child_tables
        ]
        # Each cursor's next (publication_id, position, ...) row, read one
        # ahead; (None,) once it has ended.
        heads = [next(cursor, (None,)) for cursor in cursors]
        for publication_id, *values, dblp_key in publications:
            children = []
            for index, cursor in enumerate(cursors):
                rows = []
                while heads[index][0] == publication_id:
                    rows.append(heads[index][2:])
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
