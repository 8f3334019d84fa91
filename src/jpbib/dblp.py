"""Streaming parser and query layer for DBLP-style publication XML.

The corpus file declares Latin-1 and writes everything else as character
entities, including named HTML entities defined by its DTD.  Those named
entities are rewritten to numeric references on the byte level before the
stream reaches the XML parser, which keeps only the current record's
elements.  The parse result is held in memory whole: the publication
list and the edge list, which -d writes to the store.

``find_publication`` reads the publications of a title through
``publications_titled``.  The harvest passes the ``SqliteStore``, which
answers from its ``dblp_title`` index, so -h keeps no copy of the
publication list for it.  ``CorpusStore`` answers from a title dict
instead.  It derives each index from the list on first use: the title
dict at its first ``find_publication``, the coauthor adjacency and its
token vocabulary at its first ``common_coauthors``, and ``by_key``.
The harvest loads a ``CorpusStore`` only with the coauthor display on,
for the adjacency; the title dict and ``by_key`` serve callers outside
the pipeline.

``common_coauthors`` does not compare an author with every adjacency
name.  With a match threshold above 0, a name can match only if it
shares a token within the edit budget with the author, or if neither
has a token; with a threshold of 0 every name matches every author, so
the result is empty.  The vocabulary maps each casefolded token to the
names that contain it, so those names are found by dictionary lookups:
the token itself, and with the default budget of 2 every deletion,
substitution and insertion of one character, drawn from the
vocabulary's alphabet (Norvig, "How to Write a Spelling Corrector").
A budget of 3 or more scans the vocabulary's tokens with
``levenshtein`` instead.  ``names_match`` still decides every
candidate, so the result is the one a scan of every name gives.
"""

import logging
import re
from dataclasses import dataclass
from functools import cached_property
from html.entities import name2codepoint
from typing import BinaryIO, Iterable, Iterator, Protocol, Sequence
from xml.etree import ElementTree as ET

from .similarity import MatchConfig, levenshtein, names_match

__all__ = [
    "CoauthorEdge",
    "CorpusPublication",
    "CorpusStore",
    "TitleLookup",
    "TokenVocabulary",
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
    """The corpus publications; each index is built from them on first use."""

    def __init__(self, publications: Iterable[CorpusPublication]) -> None:
        self.publications = list(publications)

    @cached_property
    def by_key(self) -> dict[str, CorpusPublication]:
        return {publication.key: publication for publication in self.publications}

    @cached_property
    def titles(self) -> dict[str, list[CorpusPublication]]:
        """Normalised title -> the publications with that title."""
        titles: dict[str, list[CorpusPublication]] = {}
        for publication in self.publications:
            titles.setdefault(normalize_title(publication.title), []).append(
                publication
            )
        return titles

    def publications_titled(self, title: str) -> list[tuple[str, tuple[str, ...]]]:
        """(key, authors) of each publication with the normalised title
        ``title``, in id order."""
        return [(p.key, p.authors) for p in self.titles.get(title, ())]

    @cached_property
    def coauthors(self) -> dict[str, set[str]]:
        """Author -> every author they share a publication with."""
        coauthors: dict[str, set[str]] = {}
        for publication in self.publications:
            for author_a, author_b in coauthor_pairs(publication.authors):
                coauthors.setdefault(author_a, set()).add(author_b)
                coauthors.setdefault(author_b, set()).add(author_a)
        return coauthors

    @cached_property
    def coauthor_tokens(self) -> "TokenVocabulary":
        """The token vocabulary of the adjacency's names."""
        return TokenVocabulary(self.coauthors)


class TokenVocabulary:
    """Casefolded name token -> the names that contain it.

    Names are split into tokens as ``names_match`` splits them.  Names
    without a token are filed under "", which ``str.split`` never yields.
    """

    def __init__(self, names: Iterable[str]) -> None:
        found: dict[str, list[str]] = {}
        for name in names:
            for token in set(name.casefold().split()) or {""}:
                found.setdefault(token, []).append(name)
        self.names = {token: tuple(listed) for token, listed in found.items()}
        # A token one edit away from a query uses only these characters.
        self.alphabet = frozenset("".join(self.names))

    def near(self, token: str, lev_threshold: int) -> list[str]:
        """Vocabulary tokens within edit distance < ``lev_threshold``."""
        if lev_threshold >= 3:
            return [
                other
                for other in self.names
                if other and levenshtein(token, other, lev_threshold) < lev_threshold
            ]
        variants = {token} if lev_threshold else set()
        if lev_threshold == 2:
            for i in range(len(token) + 1):
                head, tail = token[:i], token[i:]
                variants.update(head + c + tail for c in self.alphabet)
                if tail:
                    variants.add(head + tail[1:])
                    variants.update(head + c + tail[1:] for c in self.alphabet)
        return [variant for variant in variants if variant and variant in self.names]

    def candidates(self, name: str, lev_threshold: int) -> set[str]:
        """The names that share a token within the edit budget with ``name``.

        A name without a token gets the names without a token.  Under a
        match threshold above 0, no other name can match ``name``.
        """
        tokens = set(name.casefold().split())
        if not tokens:
            return set(self.names.get("", ()))
        return {
            candidate
            for token in tokens
            for near in self.near(token, lev_threshold)
            for candidate in self.names[near]
        }


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
    publications: list[CorpusPublication] = []
    edges: list[CoauthorEdge] = []
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
        pid = len(publications) + 1
        publication = CorpusPublication(
            id=pid,
            key=elem.get("key", f"generated/{pid}"),
            authors=authors,
            title=_text(elem, "title") or "",
            year=int(year_text) if year_text and year_text.isdecimal() else None,
            journal=_text(elem, "journal"),
            pages=_text(elem, "pages"),
            volume=_text(elem, "volume"),
        )
        publications.append(publication)
        edges.extend(
            CoauthorEdge(author_a, author_b, pid)
            for author_a, author_b in coauthor_pairs(authors)
        )
    return CorpusStore(publications), edges


class TitleLookup(Protocol):
    """A corpus that lists the publications of a normalised title:
    ``CorpusStore`` from its title index, ``SqliteStore`` by a query."""

    def publications_titled(self, title: str) -> Iterable[tuple[str, Sequence[str]]]:
        ...


def find_publication(
    title: str,
    authors: list[str],
    store: TitleLookup,
    cfg: MatchConfig | None = None,
) -> str | None:
    """Key of a stored publication with the same title and one shared
    author; the first such publication in id order."""
    cfg = cfg or MatchConfig()
    for key, stored_authors in store.publications_titled(normalize_title(title)):
        for stored_author in stored_authors:
            if any(names_match(stored_author, a, cfg) for a in authors):
                return key
    return None


def common_coauthors(
    authors: list[str],
    store: CorpusStore,
    cfg: MatchConfig | None = None,
) -> list[str]:
    """Corpus authors that at least two of the given authors worked with.

    All name comparison is fuzzy; authors that are themselves among the
    inputs are excluded.  Result is sorted lexicographically.  Each
    author is compared only with the vocabulary's candidates for it.
    """
    cfg = cfg or MatchConfig()
    if cfg.match_threshold == 0:
        # Every name matches every input author, so every name is excluded.
        return []
    counts: dict[str, int] = {}
    for author in dict.fromkeys(authors):
        neighbourhood: set[str] = set()
        for name in store.coauthor_tokens.candidates(author, cfg.lev_threshold):
            if names_match(author, name, cfg):
                neighbourhood |= store.coauthors[name]
        for neighbour in neighbourhood:
            counts[neighbour] = counts.get(neighbour, 0) + 1
    return sorted(
        name
        for name, count in counts.items()
        if count >= 2
        and not any(names_match(name, author, cfg) for author in authors)
    )
