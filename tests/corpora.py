"""Corpus stores for tests, and the reference scans they are checked against.

A test corpus goes where -d puts it: ``SqliteStore.replace_corpus`` over
``iter_corpus``, in a store file under a temporary directory.  Tests read
it back as -h does, through ``find_publication``, ``load_coauthors`` and
the ``dblpauthors`` rows.  The scans below restate over the parsed
publications what the store answers: the title scan that ``dblp_title``
is checked against, the coauthor edge rule that fills ``dblpauthors``,
and the adjacency built from the publications.
"""

import itertools
import json
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence
from xml.sax.saxutils import escape

from jpbib.config import Config
from jpbib.dblp import Coauthors, CorpusPublication, iter_corpus, normalize_title
from jpbib.similarity import MatchConfig
from jpbib.store import SqliteStore


def corpus_store(
    directory: Path, stream: BinaryIO, name: str = "corpus"
) -> SqliteStore:
    """A store in ``directory`` whose corpus tables -d's call filled from
    ``stream``; the caller closes it."""
    store = SqliteStore(Config(base_dir=str(directory), db_name=name))
    try:
        store.replace_corpus(iter_corpus(stream))
    except BaseException:
        store.close()
        raise
    return store


def stored_publications(store: SqliteStore) -> list[CorpusPublication]:
    """The ``dblp`` rows in id order, as the publications they store."""
    rows = store.connection.execute(f"SELECT * FROM {store.dblp} ORDER BY id")
    return [
        CorpusPublication(pid, key, tuple(json.loads(authors)), *rest)
        for pid, key, authors, *rest in rows
    ]


def stored_edges(store: SqliteStore) -> list[tuple[str, str, int]]:
    """The ``dblpauthors`` rows in id order, as (author_a, author_b,
    publication_id)."""
    return store.connection.execute(
        f"SELECT author_a, author_b, publication_id FROM {store.edges} ORDER BY id"
    ).fetchall()


# -- references ----------------------------------------------------------------


def coauthor_pairs(authors: Sequence[str]) -> Iterable[tuple[str, str]]:
    """Author pairs (i < j) of one author list, skipping equal names."""
    return ((a, b) for a, b in itertools.combinations(authors, 2) if a != b)


def coauthor_edges(
    publications: Iterable[CorpusPublication],
) -> list[tuple[str, str, int]]:
    """The coauthor pairs of each publication with its id, in publication
    order: the rows that ``dblpauthors`` should hold."""
    return [
        (author_a, author_b, publication.id)
        for publication in publications
        for author_a, author_b in coauthor_pairs(publication.authors)
    ]


def coauthor_adjacency(
    publications: Iterable[CorpusPublication], cfg: MatchConfig = MatchConfig()
) -> Coauthors:
    """The adjacency of the publications' author pairs, in pair order,
    with its vocabulary for ``cfg``."""
    return Coauthors(
        (
            pair
            for publication in publications
            for pair in coauthor_pairs(publication.authors)
        ),
        cfg,
    )


class TitleScan:
    """Title lookups by a scan of the publications, for ``find_publication``."""

    def __init__(self, publications: Iterable[CorpusPublication]) -> None:
        self.publications = list(publications)

    def publications_titled(self, title: str) -> list[tuple[str, tuple[str, ...]]]:
        """(key, authors) of each publication with the normalised title
        ``title``, in id order."""
        return [
            (p.key, p.authors)
            for p in self.publications
            if normalize_title(p.title) == title
        ]


def corpus_document(author_lists: Iterable[Iterable[str]]) -> bytes:
    """A corpus with one untitled article per author list, keyed ``k/1``
    onwards."""
    articles = "".join(
        f'<article key="k/{n}">'
        + "".join(f"<author>{escape(author)}</author>" for author in authors)
        + "</article>"
        for n, authors in enumerate(author_lists, start=1)
    )
    return f"<dblp>{articles}</dblp>".encode()
