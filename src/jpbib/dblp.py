"""Streaming parser and query layer for DBLP-style publication XML.

The corpus file declares Latin-1 and writes everything else as character
entities, including named HTML entities defined by its DTD.  Those named
entities are rewritten to numeric references on the byte level before the
stream reaches the XML parser.  The input is a binary file, read in
blocks of ``BLOCK_SIZE`` bytes.  ``iter_corpus`` drives pyexpat with
element and text handlers and keeps only the current record's fields,
so it yields publications one by one in constant memory; -d inserts
them into the store as they come.

The store is the one corpus.  ``find_publication`` reads the
publications of a title through ``publications_titled``, which
``SqliteStore`` answers from its ``dblp_title`` index.  ``Coauthors`` is
the one coauthor adjacency; -h builds it from the stored edge table, so
it holds no copy of the corpus.

``common_coauthors`` does not compare an author with every adjacency
name.  With a match threshold above 0, a name can match only if it
shares a token within the edit budget with the author, or if neither
has a token; with a threshold of 0 every name matches an input author,
so the final exclusion of those leaves the result empty.  The vocabulary
maps each casefolded token to the names that contain it, so those names
are found by dictionary lookups: the token itself, and with the default
budget of 2 every deletion, substitution and insertion of one character,
drawn from the vocabulary's alphabet (Norvig, "How to Write a Spelling
Corrector").
A budget of 3 or more scans the vocabulary's tokens with
``levenshtein`` instead.  ``names_match`` still decides every
candidate, so the result is the one a scan of every name gives.
"""

import logging
import re
from dataclasses import dataclass
from functools import cached_property, partial
from html.entities import name2codepoint
from typing import BinaryIO, Iterable, Iterator, Protocol, Sequence
from xml.etree import ElementTree as ET
from xml.parsers import expat

from .similarity import MatchConfig, levenshtein, names_match

__all__ = [
    "Coauthors",
    "CorpusPublication",
    "TitleLookup",
    "TokenVocabulary",
    "common_coauthors",
    "find_publication",
    "iter_corpus",
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
# Record children kept besides the authors; the first of each tag counts.
_FIELDS = {"title", "year", "journal", "pages", "volume"}
BLOCK_SIZE = 64 * 1024


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


def _entity_safe(blocks: Iterable[bytes]) -> Iterator[bytes]:
    """``blocks`` with their named entities rewritten; the unrewritten rest
    of a cut-off entity is yielded last."""
    tail = b""
    for block in blocks:
        block = tail + block
        # A named entity cut off at the block end is rewritten only once
        # its closing ";" has arrived with the next block.
        cut = block.rfind(b"&")
        if cut != -1 and _ENTITY_HEAD_RE.fullmatch(block, cut):
            block, tail = block[:cut], block[cut:]
        else:
            tail = b""
        yield _rewrite_named_entities(block)
    yield tail


def iter_corpus(stream: BinaryIO) -> Iterator[CorpusPublication]:
    """Yield the publications of a corpus XML file in document order.

    The file is read in blocks of ``BLOCK_SIZE`` bytes, and only the
    current record's fields are kept.
    Each record of a publication type gives one publication; other
    record types are skipped, unknown ones with a warning.  A field is the
    first direct child of its tag, with the text of nested markup joined
    and stripped; surrogate ids follow document order, so repeated runs
    give identical output.  Malformed XML raises a positioned
    ``ET.ParseError``.
    """
    parser = expat.ParserCreate(None, "}")
    parser.buffer_text = True
    # Text since the last child of a record began: the child's own text
    # and that of its nested markup, as ``itertext`` joins it.
    text: list[str] = []
    done: list[CorpusPublication] = []
    depth = pid = 0
    record: dict[str, str] | None = None
    # The children of a skipped record fill these too; the next
    # publication clears them before its own children arrive.
    authors: list[str] = []
    fields: dict[str, str | None] = {}

    def start(tag: str, attributes: dict[str, str]) -> None:
        nonlocal depth, record
        depth += 1
        if depth == 3:
            text.clear()
        elif depth == 2:
            record = None
            if tag in PUBLICATION_TYPES:
                record = attributes
                authors.clear()
                fields.clear()
            elif tag not in NON_PUBLICATION_TYPES:
                log.warning("skipping unknown record type <%s>", tag)

    def end(tag: str) -> None:
        nonlocal depth, pid
        depth -= 1
        if depth == 2:
            if tag == "author":
                authors.append("".join(text).strip())
            elif tag in _FIELDS and tag not in fields:
                fields[tag] = "".join(text).strip() or None
        elif depth == 1 and record is not None:
            pid += 1
            # An SQLite INTEGER holds every number of up to 18 digits.
            year = fields.get("year") or ""
            done.append(
                CorpusPublication(
                    id=pid,
                    key=record.get("key", f"generated/{pid}"),
                    authors=tuple(authors),
                    title=fields.get("title") or "",
                    year=int(year) if year.isdecimal() and len(year) <= 18 else None,
                    journal=fields.get("journal"),
                    pages=fields.get("pages"),
                    volume=fields.get("volume"),
                )
            )

    def skipped(name: str, is_parameter_entity: bool) -> None:
        # An undeclared entity under an external DTD, which expat would drop.
        error = expat.error(
            f"undefined entity &{name};: line {parser.ErrorLineNumber}, "
            f"column {parser.ErrorColumnNumber}"
        )
        error.code = 11  # XML_ERROR_UNDEFINED_ENTITY
        error.lineno, error.offset = parser.ErrorLineNumber, parser.ErrorColumnNumber
        raise error

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text.append
    parser.SkippedEntityHandler = skipped
    try:
        for block in _entity_safe(iter(partial(stream.read, BLOCK_SIZE), b"")):
            parser.Parse(block, False)
            yield from done
            done.clear()
        parser.Parse(b"", True)
    except expat.ExpatError as error:
        parse_error = ET.ParseError(str(error))
        parse_error.code = error.code
        parse_error.position = error.lineno, error.offset
        raise parse_error from None
    yield from done


class Coauthors(dict[str, set[str]]):
    """Author -> every author they share a publication with, in pair order.

    -h fills it from the store's edge table (``SqliteStore.load_coauthors``).
    """

    def __init__(self, pairs: Iterable[tuple[str, str]]) -> None:
        super().__init__()
        for author_a, author_b in pairs:
            self.setdefault(author_a, set()).add(author_b)
            self.setdefault(author_b, set()).add(author_a)

    @cached_property
    def tokens(self) -> "TokenVocabulary":
        """The token vocabulary of the adjacency's names."""
        return TokenVocabulary(self)


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


# No stage calls this; perfbench/tracing.py wraps it.  It goes with ROADMAP item 5.
def parse_corpus(stream: BinaryIO) -> list[CorpusPublication]:
    return list(iter_corpus(stream))


class TitleLookup(Protocol):
    """A corpus that lists the publications of a normalised title, such as
    ``SqliteStore``: from its title index, or by a scan without it."""

    def publications_titled(self, title: str) -> Iterable[tuple[str, Sequence[str]]]:
        ...


def find_publication(
    title: str,
    authors: list[str],
    store: TitleLookup,
    cfg: MatchConfig | None = None,
) -> str | None:
    """Key of a stored publication with the same title and one shared
    author; the first such publication in id order.  A title that
    normalises to "" matches nothing: untitled records are stored so."""
    normalized = normalize_title(title)
    if not normalized:
        return None
    cfg = cfg or MatchConfig()
    for key, stored_authors in store.publications_titled(normalized):
        for stored_author in stored_authors:
            if any(names_match(stored_author, a, cfg) for a in authors):
                return key
    return None


def common_coauthors(
    authors: list[str],
    coauthors: Coauthors,
    cfg: MatchConfig | None = None,
) -> list[str]:
    """Corpus authors that at least two of the given authors worked with.

    All name comparison is fuzzy; authors that are themselves among the
    inputs are excluded.  Result is sorted lexicographically.  Each
    author is compared only with the vocabulary's candidates for it.
    """
    cfg = cfg or MatchConfig()
    counts: dict[str, int] = {}
    for author in dict.fromkeys(authors):
        neighbourhood: set[str] = set()
        for name in coauthors.tokens.candidates(author, cfg.lev_threshold):
            if names_match(author, name, cfg):
                neighbourhood |= coauthors[name]
        for neighbour in neighbourhood:
            counts[neighbour] = counts.get(neighbour, 0) + 1
    return sorted(
        name
        for name, count in counts.items()
        if count >= 2
        and not any(names_match(name, author, cfg) for author in authors)
    )
