"""Parser for ENAMDICT-format name dictionary files.

Entries come one per line as ``SURFACE [READING] /LATIN (TYPE)/`` where
the reading bracket is optional (kana-only surfaces need none), the type
block may sit before or after the Latin text, and one line may carry
several slash-delimited senses.  Only person-name senses are kept; the
known file inconsistencies (missing terminal slash, stray bracket,
backslash in place of a bracket) are tolerated and reported as warnings
instead of patched by hand.

``iter_records`` parses a stream as it is read: it yields each record
and reports each warning as its line comes, and keeps only the keys
that drop duplicate records.  It is the one parse of a whole stream:
``-e`` feeds it straight into the store, so no record or warning list is
ever held, and ``load_enamdict`` only collects it.  Every combination of name
types is one shared frozenset (``TYPE_COMBINATIONS``), so the records
of one combination carry the same object.
"""

import enum
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, TextIO

__all__ = [
    "DictionaryEncodingError",
    "NameRecord",
    "NameType",
    "ParseWarning",
    "TYPE_COMBINATIONS",
    "filter_types",
    "iter_records",
    "load_enamdict",
    "open_dictionary",
    "parse_entry_line",
]


class NameType(enum.Enum):
    """Person-name categories stored by the parser."""

    SURNAME = "s"
    GIVEN = "g"
    FEMALE_GIVEN = "f"
    MALE_GIVEN = "m"
    UNCLASSIFIED = "u"


# Every combination of person-name types as one frozenset, keyed by any
# equal set.  The parser hands out these objects, so the records of one
# combination share a set; the store derives its type codes from them.
TYPE_COMBINATIONS: dict[frozenset[NameType], frozenset[NameType]] = {
    types: types
    for size in range(len(NameType) + 1)
    for types in map(frozenset, combinations(NameType, size))
}


class DictionaryEncodingError(ValueError):
    """The dictionary file is not UTF-8; the message names the file."""


PERSON_TYPE_CODES = {t.value: t for t in NameType}

# Every code the type block may carry; the non-person ones (place, full
# person name, product, company, station) are recognized but dropped.
_ALL_TYPE_CODES = ("st", "pr", "co", "s", "u", "g", "f", "m", "p", "h")
_VALID_TYPES_RE = re.compile("(,|%s)*" % "|".join(_ALL_TYPE_CODES))
_TYPE_TOKEN_RE = re.compile("|".join(_ALL_TYPE_CODES) + "|,")


@dataclass(frozen=True)
class NameRecord:
    """One dictionary name: written form, optional kana reading, Latin form."""

    surface: str
    reading: str | None
    latin: str
    types: frozenset[NameType]


@dataclass(frozen=True)
class ParseWarning:
    """A tolerated irregularity; ``raw`` is the offending line verbatim."""

    line_number: int
    kind: str  # missing-terminal-slash | stray-bracket | malformed-type-block
    raw: str


def filter_types(raw: str) -> frozenset[NameType]:
    """Person-name types named by one round-bracket block.

    Returns the empty set when the block is commentary, i.e. anything
    that is not a comma-separated list of known type codes, or when it
    names only non-person types.
    """
    if _VALID_TYPES_RE.fullmatch(raw) is None:
        return frozenset()
    tokens = _TYPE_TOKEN_RE.findall(raw)
    return frozenset(PERSON_TYPE_CODES[t] for t in tokens if t in PERSON_TYPE_CODES)


_HEAD_RE = re.compile(r"^(?P<surface>\S+)(?:\s+\[(?P<reading>[^\]]*)\])?\s*$")
_HEAD_BACKSLASH_RE = re.compile(r"^(?P<surface>\S+)\s+\[(?P<reading>[^\]\\]*)\\\s*$")
_BRACKET_BLOCK_RE = re.compile(r"\(([^()]*)\)")


def _parse_sense(
    sense: str, include_unclassified: bool, warn: list[str]
) -> tuple[str, frozenset[NameType]] | None:
    # A ')' with no matching '(' appears in the wild; drop it and note it.
    cleaned = []
    depth = 0
    for ch in sense:
        if ch == "(":
            depth += 1
        elif ch == ")":
            if depth == 0:
                warn.append("stray-bracket")
                continue
            depth -= 1
        cleaned.append(ch)
    sense = "".join(cleaned)
    if depth > 0:
        warn.append("stray-bracket")

    types: set[NameType] = set()
    for block in _BRACKET_BLOCK_RE.findall(sense):
        types |= filter_types(block)
    latin = " ".join(_BRACKET_BLOCK_RE.sub(" ", sense).split())
    if not include_unclassified:
        types.discard(NameType.UNCLASSIFIED)
    if not latin or not types:
        return None
    return latin, TYPE_COMBINATIONS[frozenset(types)]


def parse_entry_line(
    line: str, include_unclassified: bool, line_number: int = 0
) -> tuple[list[NameRecord], list[ParseWarning]]:
    """Parse one entry line into zero or more records.

    Each slash-delimited sense yields one record when its type set still
    holds person types after filtering.  Malformed lines yield warnings
    and whatever could be salvaged.
    """
    raw = line.rstrip("\n")
    stripped = raw.strip()
    records: list[NameRecord] = []
    warnings: list[ParseWarning] = []
    if not stripped:
        return records, warnings

    slash = stripped.find("/")
    if slash < 0:
        warnings.append(ParseWarning(line_number, "malformed-type-block", raw))
        return records, warnings
    head = stripped[:slash].strip()
    body = stripped[slash + 1:]
    if body.endswith("/"):
        body = body[:-1]
    else:
        warnings.append(ParseWarning(line_number, "missing-terminal-slash", raw))

    match = _HEAD_RE.match(head)
    if match is None:
        match = _HEAD_BACKSLASH_RE.match(head)
        if match is None:
            warnings.append(ParseWarning(line_number, "malformed-type-block", raw))
            return records, warnings
        warnings.append(ParseWarning(line_number, "stray-bracket", raw))
    surface = match.group("surface")
    reading = match.group("reading")

    for sense in body.split("/"):
        sense = sense.strip()
        if not sense:
            continue
        kinds: list[str] = []
        parsed = _parse_sense(sense, include_unclassified, kinds)
        for kind in kinds:
            warnings.append(ParseWarning(line_number, kind, raw))
        if parsed is None:
            continue
        records.append(NameRecord(surface, reading, *parsed))
    return records, warnings


def iter_records(
    lines: Iterable[str],
    on_warning: Callable[[ParseWarning], object],
    include_unclassified: bool = False,
) -> Iterator[NameRecord]:
    """Parse a dictionary stream, yielding each record as its line is read.

    Each warning goes to ``on_warning`` when its line is read, before that
    line's records; warnings are never fatal.  A duplicate record (same
    surface, Latin form and types) is yielded once; only those keys are
    kept.  Read errors from the underlying stream propagate.
    """
    seen: set[tuple[str, str, frozenset[NameType]]] = set()
    for number, line in enumerate(lines, start=1):
        records, warnings = parse_entry_line(line, include_unclassified, number)
        for warning in warnings:
            on_warning(warning)
        for record in records:
            key = (record.surface, record.latin, record.types)
            if key not in seen:
                seen.add(key)
                yield record


@contextmanager
def open_dictionary(path: str) -> Iterator[TextIO]:
    """The dictionary file as UTF-8 text lines, past a leading byte-order
    mark.  A decode error anywhere in the block, wherever the lines are
    read, becomes a ``DictionaryEncodingError`` that names the file."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise DictionaryEncodingError(
            f"name dictionary {path!r} is not UTF-8 ({exc.reason}); convert it"
            " first, e.g. from EUC-JP with iconv -f EUC-JP -t UTF-8"
        ) from None


# No stage calls this; perfbench/tracing.py wraps it.  It goes with ROADMAP item 5.
def load_enamdict(
    path: str, include_unclassified: bool = False
) -> tuple[list[NameRecord], list[ParseWarning]]:
    """The records and warnings of a dictionary file, in ``iter_records``
    order, as two lists."""
    warnings: list[ParseWarning] = []
    with open_dictionary(path) as lines:
        records = list(iter_records(lines, warnings.append, include_unclassified))
    return records, warnings
