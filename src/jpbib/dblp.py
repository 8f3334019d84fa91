"""Streaming parser and query layer for DBLP-style publication XML.

The corpus file declares Latin-1 and writes everything else as character
entities, including named HTML entities defined by its DTD.  Those named
entities are rewritten to numeric references on the byte level before the
stream reaches the XML parser, which keeps only the current record's
elements.  The parse result is held in memory whole: every publication,
its key and title indexes, the coauthor adjacency and the edge list.
"""

import logging
import re
from dataclasses import dataclass
from html.entities import name2codepoint
from typing import BinaryIO, Iterable, Iterator, Sequence
from xml.etree import ElementTree as ET

from .similarity import MatchConfig, names_match

__all__ = [
    "CoauthorEdge",
    "CorpusPublication",
    "CorpusStore",
    "common_coauthors",
    "find_publication",
    "parse_corpus",
]

log = logging.getLogger(__name__)

PUBLICATION_TYPES = {
    "article",
    "inproceedings",
    "proceedings",
    "book",
    "incollection",
    "phdthesis",
    "mastersthesis",
}
# Known non-publication record types silently skipped.
NON_PUBLICATION_TYPES = {"www", "person", "data"}


@dataclass(frozen=True)
class CorpusPublication:
    id: int
    key: str
    authors: tuple[str, ...]
    title: str
    year: int | None = None
    journal: str | None = None
    pages: str | None = None
    volume: str | None = None


@dataclass(frozen=True)
class CoauthorEdge:
    author_a: str
    author_b: str
    publication_id: int


_XML_BUILTINS = {"amp", "lt", "gt", "quot", "apos"}
_NAMED_ENTITY_RE = re.compile(rb"&([A-Za-z][A-Za-z0-9]*);")
_ENTITY_HEAD_RE = re.compile(rb"&[A-Za-z0-9]*")


def _rewrite_named_entities(chunk: bytes) -> bytes:
    def replace(match: re.Match) -> bytes:
        name = match.group(1).decode("ascii")
        if name in _XML_BUILTINS:
            return match.group(0)
        codepoint = name2codepoint.get(name)
        if codepoint is None:
            log.warning("unknown entity &%s; left undecoded", name)
            return b"&amp;" + match.group(1) + b";"
        return b"&#%d;" % codepoint

    return _NAMED_ENTITY_RE.sub(replace, chunk)


def _iter_elements(stream: BinaryIO | Iterable[bytes]) -> Iterator[ET.Element]:
    """Yield completed depth-1 elements, keeping the tree pruned."""
    parser = ET.XMLPullParser(events=("start", "end"))
    root = None
    depth = 0
    tail = b""
    for chunk in stream:
        chunk = tail + chunk
        # A named entity cut off at the chunk end is rewritten only once
        # its closing ";" has arrived with the next chunk.
        cut = chunk.rfind(b"&")
        if cut != -1 and _ENTITY_HEAD_RE.fullmatch(chunk, cut):
            chunk, tail = chunk[:cut], chunk[cut:]
        else:
            tail = b""
        parser.feed(_rewrite_named_entities(chunk))
        for event, elem in parser.read_events():
            if event == "start":
                if root is None:
                    root = elem
                depth += 1
            else:
                depth -= 1
                if depth == 1:
                    yield elem
                    root.clear()
    parser.feed(tail)
    parser.close()


def _text(elem: ET.Element, tag: str) -> str | None:
    child = elem.find(tag)
    if child is None:
        return None
    return "".join(child.itertext()).strip() or None


def coauthor_pairs(authors: Sequence[str]) -> Iterator[tuple[str, str]]:
    """Author pairs (i < j) of one author list, skipping equal names."""
    for i, author_a in enumerate(authors):
        for author_b in authors[i + 1 :]:
            if author_a != author_b:
                yield author_a, author_b


class CorpusStore:
    """Publications plus the coauthor adjacency derived from them."""

    def __init__(self) -> None:
        self.publications: list[CorpusPublication] = []
        self.by_key: dict[str, CorpusPublication] = {}
        self.coauthors: dict[str, set[str]] = {}
        self._by_title: dict[str, list[CorpusPublication]] = {}

    def add(self, publication: CorpusPublication) -> None:
        self.publications.append(publication)
        self.by_key[publication.key] = publication
        self._by_title.setdefault(
            normalize_title(publication.title), []
        ).append(publication)
        for author_a, author_b in coauthor_pairs(publication.authors):
            self.coauthors.setdefault(author_a, set()).add(author_b)
            self.coauthors.setdefault(author_b, set()).add(author_a)

    def by_title(self, title: str) -> list[CorpusPublication]:
        """Publications with the same normalised title; the list is shared."""
        return self._by_title.get(normalize_title(title), [])


def normalize_title(title: str) -> str:
    """Whitespace-collapsed, casefolded title without trailing periods."""
    return " ".join(title.split()).casefold().rstrip(".")


def parse_corpus(
    stream: BinaryIO | Iterable[bytes],
) -> tuple[CorpusStore, list[CoauthorEdge]]:
    """Parse a corpus XML byte stream into a store and coauthor edges.

    One publication per known record type; every publication with n >= 2
    authors contributes all n(n-1)/2 unordered author pairs.  Unknown
    record types are skipped with a warning; surrogate ids follow
    document order, so repeated runs give identical output.
    """
    store = CorpusStore()
    edges: list[CoauthorEdge] = []
    next_id = 1
    for elem in _iter_elements(stream):
        tag = elem.tag
        if tag not in PUBLICATION_TYPES:
            if tag not in NON_PUBLICATION_TYPES:
                log.warning("skipping unknown record type <%s>", tag)
            continue
        authors = tuple(
            "".join(a.itertext()).strip() for a in elem.findall("author")
        )
        year_text = _text(elem, "year")
        publication = CorpusPublication(
            id=next_id,
            key=elem.get("key", f"generated/{next_id}"),
            authors=authors,
            title=_text(elem, "title") or "",
            year=int(year_text) if year_text and year_text.isdigit() else None,
            journal=_text(elem, "journal"),
            pages=_text(elem, "pages"),
            volume=_text(elem, "volume"),
        )
        store.add(publication)
        edges.extend(
            CoauthorEdge(author_a, author_b, publication.id)
            for author_a, author_b in coauthor_pairs(authors)
        )
        next_id += 1
    return store, edges


def find_publication(
    title: str,
    authors: list[str],
    store: CorpusStore,
    cfg: MatchConfig | None = None,
) -> str | None:
    """Key of a stored publication with the same title and one shared author."""
    cfg = cfg or MatchConfig()
    for publication in store.by_title(title):
        for stored_author in publication.authors:
            if any(names_match(stored_author, a, cfg) for a in authors):
                return publication.key
    return None


def common_coauthors(
    authors: list[str],
    store: CorpusStore,
    cfg: MatchConfig | None = None,
) -> list[str]:
    """Corpus authors that at least two of the given authors worked with.

    All name comparison is fuzzy; authors that are themselves among the
    inputs are excluded.  Result is sorted lexicographically.
    """
    cfg = cfg or MatchConfig()
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
        if count >= 2
        and not any(names_match(name, author, cfg) for author in authors)
    )
