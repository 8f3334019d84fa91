"""Streaming parser and query layer for DBLP-style publication XML.

The corpus file declares Latin-1 and writes everything else as character
entities, including named HTML entities defined by its DTD.  expat expands
them: it reads the HTML entity declarations as every document's external
DTD subset, and opens no file that the document names.  A declaration in
the document's own internal subset comes first and wins.  An undeclared
entity in text is kept as its literal ``&name;`` with a warning; expat
drops one in an attribute value.  The input is a binary file, read in
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
shares a token within the edit budget with the author, or if neither has
a token; with a threshold of 0 every name matches an input author, so
the result is empty and nothing is compared.  Each (author, name) pair
is decided once, and the names an input author matched are left out of
the result; names without a token are never listed.  -h builds the
adjacency once for the run's ``MatchConfig``, and with it the
vocabulary, which maps each casefolded token to the names that contain
it and cuts each token into segments for the run's edit budget (the
partition filter of Pass-Join).  A token of a length in range that
shares one of its segments with the query, where the budget allows, is a
candidate, and ``levenshtein`` checks each one.  With a budget of 1 the
one segment is the token itself.  ``names_match`` still decides every
candidate name, so the result is the one a scan of every name gives.
"""

import logging
from dataclasses import dataclass
from functools import partial
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


# The HTML entities that the DBLP DTD declares, without XML's five
# built-ins: the external DTD subset that expat reads for every document,
# in place of any file the document names.
_HTML_ENTITIES = "".join(
    f'<!ENTITY {name} "&#{codepoint};">'
    for name, codepoint in name2codepoint.items()
    if name not in {"amp", "lt", "gt", "quot", "apos"}
).encode("ascii")


def iter_corpus(stream: BinaryIO) -> Iterator[CorpusPublication]:
    """Yield the publications of a corpus XML file in document order.

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
        # An undeclared entity: under an external DTD subset a validity
        # error, not a well-formedness one (XML 1.0, 4.1).
        reference = f"{'%' if is_parameter_entity else '&'}{name};"
        log.warning("unknown entity %s left undecoded", reference)
        if not is_parameter_entity:
            text.append(reference)

    def external(context: str | None, base, system_id: str | None, public_id) -> int:
        # The DTD subset and parameter entities get the HTML declarations;
        # an external general entity is left out.  No file is opened.
        if context is None:
            parser.ExternalEntityParserCreate(None).Parse(_HTML_ENTITIES, True)
        else:
            log.warning("external entity %s not read", system_id)
        return 1

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text.append
    parser.SkippedEntityHandler = skipped
    parser.ExternalEntityRefHandler = external
    parser.UseForeignDTD(True)
    parser.SetParamEntityParsing(expat.XML_PARAM_ENTITY_PARSING_UNLESS_STANDALONE)
    try:
        for block in iter(partial(stream.read, BLOCK_SIZE), b""):
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
    """Author -> every author they share a publication with, in pair order,
    with the run's match settings and the token vocabulary of its names.

    -h fills it from the store's edge table (``SqliteStore.load_coauthors``).
    """

    def __init__(self, pairs: Iterable[tuple[str, str]], cfg: MatchConfig) -> None:
        super().__init__()
        for author_a, author_b in pairs:
            self.setdefault(author_a, set()).add(author_b)
            self.setdefault(author_b, set()).add(author_a)
        self.cfg = cfg
        self.tokens = TokenVocabulary(self, cfg.lev_threshold)


class TokenVocabulary:
    """Casefolded name token -> the names that contain it, with the tokens
    cut for one edit budget.

    Names are split into tokens as ``names_match`` splits them.  Names
    without a token are filed under "", which ``str.split`` never yields.

    ``near`` finds the tokens within the edit budget through a segment
    index (Li, Deng, Wang and Feng, "Pass-Join", PVLDB 5(3), 2011).  A
    token of length l is cut into min(tau, l) + 1 segments, with tau =
    ``lev_threshold`` - 1, whose lengths differ by at most one, the longer
    ones last, and filed under (l, segment number, segment text).  When a
    token longer than tau is within tau edits of a query, one of its tau +
    1 segments appears unchanged in the query, shifted by no more than the
    edits on either side of it account for.  A shorter token has one empty
    segment, which every query of a length within tau of l shares.  A
    budget of 1 leaves one segment, the token itself; a budget of 0 cuts
    nothing.  ``near`` keeps each answer as long as the vocabulary.
    """

    def __init__(self, names: Iterable[str], lev_threshold: int) -> None:
        found: dict[str, list[str]] = {}
        for name in names:
            for token in set(name.casefold().split()) or {""}:
                found.setdefault(token, []).append(name)
        self.names = {token: tuple(listed) for token, listed in found.items()}
        # The lists go before the tokens are cut, so the two never coexist.
        del found
        self.lev_threshold = lev_threshold
        tau = lev_threshold - 1
        # Length -> for each segment: its start, its length, text -> tokens.
        self.segments: dict[int, list[tuple[int, int, dict[str, list[str]]]]] = {}
        for token in self.names if lev_threshold else ():
            length = len(token)
            if not length:
                continue
            cuts = self.segments.get(length)
            if cuts is None:
                parts = min(tau, length) + 1
                size, longer = divmod(length, parts)
                shorter = parts - longer
                cuts = self.segments[length] = [
                    (i * size + max(i - shorter, 0), size + (i >= shorter), {})
                    for i in range(parts)
                ]
            for start, size, table in cuts:
                table.setdefault(token[start : start + size], []).append(token)
        # Query token -> its answer (the vocabulary serves one budget).
        self._answers: dict[str, list[str]] = {}

    def near(self, token: str) -> list[str]:
        """Vocabulary tokens within edit distance < ``lev_threshold``.

        A token within tau edits of ``token`` has a segment i (from 0) that
        appears unchanged in ``token`` with at most i edits before it and
        tau - i after it, so it starts within i of its own start and within
        tau - i of that start moved by the length difference.  Every token
        that shares such a segment is checked with ``levenshtein``, once:
        a repeated query returns the first answer, the same list.
        """
        answer = self._answers.get(token)
        if answer is not None:
            return answer
        limit = self.lev_threshold
        tau = limit - 1
        n = len(token)
        found: set[str] = set()
        for length, cuts in self.segments.items():
            shift = n - length
            if abs(shift) > tau:
                continue
            for i, (start, size, table) in enumerate(cuts):
                first = max(start - i, start + shift - tau + i, 0)
                last = min(start + i, start + shift + tau - i, n - size)
                for position in range(first, last + 1):
                    listed = table.get(token[position : position + size])
                    if listed:
                        found.update(listed)
        answer = [other for other in found if levenshtein(token, other, limit) < limit]
        self._answers[token] = answer
        return answer

    def candidates(self, name: str) -> set[str]:
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
            for near in self.near(token)
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


def common_coauthors(authors: list[str], coauthors: Coauthors) -> list[str]:
    """Corpus authors that at least two of the given authors worked with.

    All name comparison is fuzzy, under the adjacency's match settings.
    Each author is compared only with the vocabulary's candidates for it,
    and each (author, name) pair is decided once: a name that matched an
    input author is left out of the result.  A name without a token is
    never listed.  At a match threshold of 0 every name matches an input
    author, so the result is empty.  Result is sorted lexicographically.
    """
    cfg = coauthors.cfg
    if not cfg.match_threshold:
        return []
    counts: dict[str, int] = {}
    matched: set[str] = set()
    for author in dict.fromkeys(authors):
        neighbourhood: set[str] = set()
        for name in coauthors.tokens.candidates(author):
            if names_match(author, name, cfg):
                matched.add(name)
                neighbourhood |= coauthors[name]
        for neighbour in neighbourhood:
            counts[neighbour] = counts.get(neighbour, 0) + 1
    return sorted(
        name
        for name, count in counts.items()
        if count >= 2 and name not in matched and name.split()
    )
