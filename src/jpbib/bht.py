"""Rendering of extended BHT files, export of the harvested tree, and
per-directory concatenation.

One publication becomes one file (single publication format): an h2
header with volume, number and issue date, the author/title/pages list
item, and the extension elements carrying original names, per-author
status, reading candidates, the original-language title, common
coauthors and the corpus key when the publication was already known.
Output is pure ASCII; everything else is written as character
references.
"""

import itertools
import logging
import os
import re
from dataclasses import dataclass, field
from typing import Container, Iterable

from .dblp import Coauthors, common_coauthors
from .matching import AuthorResolution, latin_names
from .oai import HarvestedPublication

__all__ = [
    "BhtEntry",
    "build_entry",
    "claim_spf_path",
    "concatenate",
    "date_label",
    "escape_non_ascii",
    "export",
    "overwrite",
    "remove_unclaimed",
    "render_spf",
    "spf_relative_path",
]

log = logging.getLogger(__name__)


@dataclass
class BhtEntry:
    """Everything needed to render one single-publication file."""

    volume: str | None
    number: str | None
    date: str | None  # raw date, e.g. 2011-10-15
    authors: list[AuthorResolution]
    title: str
    pages: str | None = None
    ee_url: str | None = None
    original_title: tuple[str, str, str] | None = None  # text, lang, type
    common_coauthors: list[str] = field(default_factory=list)
    dblp_key: str | None = None


_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")
_LINE_BREAK_RE = re.compile(r"\s*[\r\n]\s*")


def escape_non_ascii(text: str) -> str:
    """ASCII-safe form: XML specials named, all else as &#xHEX; references.
    Each step runs only on a text that holds what it replaces."""
    if "&" in text or "<" in text or ">" in text:
        text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if text.isascii():
        return text
    return _NON_ASCII_RE.sub(lambda match: f"&#x{ord(match[0]):X};", text)


def _text(text: str) -> str:
    # The one way a text reaches a BHT file: each whitespace run (U+3000
    # too) that holds a CR or LF becomes one space, then it is escaped.
    if "\n" in text or "\r" in text:
        text = _LINE_BREAK_RE.sub(" ", text)
    return escape_non_ascii(text)


# English whatever the locale: calendar.month_name follows LC_TIME.
_MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)


def date_label(date: str | None) -> str | None:
    """Human-readable issue date ("October 2011") from an ISO-style date."""
    if not date:
        return None
    match = re.match(r"(\d{4})-(\d{2})", date)
    if match:
        year, month = match.group(1), int(match.group(2))
        if 1 <= month <= 12:
            return f"{_MONTH_NAMES[month - 1]} {year}"
    match = re.match(r"\d{4}", date)
    if match:
        return match.group(0)
    return date


def _attr(text: str) -> str:
    # Attribute values additionally need their delimiter escaped.
    return _text(text).replace('"', "&quot;")


def _display_name(resolution: AuthorResolution) -> str:
    if resolution.latin is not None:
        display = resolution.latin.display()
        if display:
            return display
    if resolution.kanji is not None:
        return resolution.kanji.display()
    return ""


def render_spf(entry: BhtEntry) -> str:
    """Render one publication in single publication format (LF endings).

    Every text, in an element or an attribute value, is written with each
    whitespace run that holds a CR or LF as one space, so each element
    keeps to its line; other whitespace, U+3000 included, stays as
    written."""
    header = ", ".join(
        part
        for part in (
            entry.volume and f"Volume {entry.volume}",
            entry.number and f"Number {entry.number}",
            date_label(entry.date),
        )
        if part
    )
    if not entry.authors:
        log.warning("publication %r has no authors", entry.title)
    names = [_text(_display_name(a)) for a in entry.authors]
    title = entry.title.strip()
    if title and title[-1] not in ".?!":
        title += "."
    lines = [
        f"<h2>{_text(header)}</h2>",
        "<ul>",
        f"<li>{', '.join(names)}:",
        _text(title),
        _text(entry.pages or "0-"),
    ]
    if entry.ee_url:
        lines.append(f"<ee>{_text(entry.ee_url)}</ee>")

    for author, name in zip(entry.authors, names):
        if author.kanji is not None:
            original = _text(f"{author.kanji.family},{author.kanji.given}")
            latin = author.latin.display() if author.latin is not None else ""
            latin_attr = f' latin="{_attr(latin)}"' if latin else ""
            lines.append(f"<originalname{latin_attr}>{original}</originalname>")
        quoted = name.replace('"', "&quot;")
        lines.append(f'<status name="{quoted}">{author.status.value}</status>')
        if author.candidates:
            kanji = _attr(author.kanji.display()) if author.kanji is not None else ""
            rendered = _text(", ".join(c.display() for c in author.candidates))
            lines.append(
                f'<namecandidates kanji="{kanji}">{rendered}</namecandidates>'
            )

    if entry.original_title:
        text, lang, pub_type = entry.original_title
        lines.append(
            f'<originaltitle lang="{_attr(lang)}" type="{_attr(pub_type)}">'
            f"{_text(text)}</originaltitle>"
        )
    if entry.common_coauthors:
        coauthors = _text(", ".join(entry.common_coauthors))
        lines.append(f"<commoncoauthors>{coauthors}</commoncoauthors>")
    if entry.dblp_key:
        lines.append(f"<dblpkey>{_text(entry.dblp_key)}</dblpkey>")

    lines.append("</ul>")
    return "\n".join(lines) + "\n"


def build_entry(
    publication: HarvestedPublication,
    resolutions: list[AuthorResolution],
    common_coauthors: list[str] | None = None,
    dblp_key: str | None = None,
) -> BhtEntry:
    """Assemble the renderable entry for one harvested publication."""
    latin_title = None
    japanese_title = None
    for text, lang in publication.titles:
        if lang == "ja" and japanese_title is None:
            japanese_title = text
        elif lang != "ja" and latin_title is None:
            latin_title = text
    title = latin_title or japanese_title or ""

    original_title = None
    if publication.language == "ja" and japanese_title:
        original_title = (japanese_title, "ja", publication.publication_type)

    return BhtEntry(
        volume=publication.volume,
        number=publication.number,
        date=publication.date,
        authors=resolutions,
        title=title,
        pages=publication.pages,
        ee_url=publication.source_url,
        original_title=original_title,
        common_coauthors=list(common_coauthors or []),
        dblp_key=dblp_key,
    )


_SLUG_RE = re.compile(r"[^a-z0-9]+")
# Keeps each name made from provider data under the common 255-byte limit.
_COMPONENT_CAP = 100
# ASCII digits only: \d also takes non-ASCII digits of up to 4 UTF-8 bytes.
_STEM_RE = re.compile(rf"[0-9]{{1,{_COMPONENT_CAP}}}$")


def _slug(text: str, fallback: str) -> str:
    return (_SLUG_RE.sub("-", text.lower()).strip("-") or fallback)[:_COMPONENT_CAP]


def _identifier_slug(identifier: str) -> str:
    # An identifier without an ASCII letter or digit still names a visible file.
    return _slug(identifier, "unnamed")


def spf_relative_path(publication: HarvestedPublication) -> str:
    """Directory grouping and file name for one publication.

    Files group by publication type and volume; the file itself is named
    after the trailing integer of the OAI identifier, or else the slugged
    identifier.  Each component is cut to its first 100 characters, the
    integer to its last 100 digits.
    """
    type_slug = _slug(publication.publication_type or "", "untyped")
    volume = _slug(publication.volume or "", "0")
    match = _STEM_RE.search(publication.identifier)
    stem = match[0] if match else _identifier_slug(publication.identifier)
    return os.path.join(type_slug, f"volume-{volume}", f"{stem}.bht")


def claim_spf_path(publication: HarvestedPublication, claimed: set[str]) -> str:
    """The first relative path not in ``claimed``, which it then adds.

    ``spf_relative_path`` comes first; a publication whose path is taken
    is named after its whole slugged identifier, with a "-2", "-3", ...
    suffix if even that is taken.  ``all.bht`` is never handed out: it
    is the name of a directory's concatenation.
    """
    path = spf_relative_path(publication)
    directory = os.path.dirname(path)
    stem = _identifier_slug(publication.identifier)
    candidates = itertools.chain(
        (path, os.path.join(directory, f"{stem}.bht")),
        (os.path.join(directory, f"{stem}-{n}.bht") for n in itertools.count(2)),
    )
    for candidate in candidates:
        if candidate not in claimed and _is_part(os.path.basename(candidate)):
            claimed.add(candidate)
            return candidate


def _is_part(name: str) -> bool:
    """A single-publication file: any BHT file but the concatenation."""
    return name.endswith(".bht") and name != "all.bht"


def _remove_if_empty(directory: str, root: str) -> None:
    if directory != root and not os.listdir(directory):
        os.rmdir(directory)


def remove_unclaimed(root: str, taken: Container[str]) -> None:
    """Delete the single-publication files under ``root`` whose relative
    path is not in ``taken``, then every directory left empty but the root.

    all.bht stays, for concatenation to rewrite or remove.
    """
    for directory, _, filenames in os.walk(root, topdown=False):
        relative = os.path.relpath(directory, root)
        for name in filenames:
            if _is_part(name) and os.path.join(relative, name) not in taken:
                os.remove(os.path.join(directory, name))
        _remove_if_empty(directory, root)


def overwrite(path: str, data: bytes) -> None:
    """Make ``data`` the whole content of the file at ``path``, created if
    missing.

    The old bytes are overwritten in place and the file is then cut to
    ``len(data)``; it is never truncated to zero first.  On ext4, closing
    a file truncated to zero starts its writeback (``auto_da_alloc``), so
    truncating costs one disk flush per rewritten file.  A write stopped
    midway leaves new bytes followed by old ones.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(data)
        handle.truncate()


def _within(root: str, target: str) -> bool:
    # ``root`` is absolute and normalised; ``target`` is normalised here.
    return os.path.normpath(target).startswith(os.path.join(root, ""))


def export(
    harvested: Iterable[
        tuple[HarvestedPublication, list[AuthorResolution], str | None]
    ],
    root: str,
    coauthors: Coauthors | None = None,
) -> None:
    """Write one file under ``root`` for each harvested (publication,
    resolutions, corpus key), then remove every other single-publication
    file, as ``remove_unclaimed`` does.

    Paths are claimed in the order given.  The common coauthors are listed
    when ``coauthors`` is given.  The removal also runs when a write fails,
    so the tree then holds only the files written here.
    """
    root = os.path.abspath(root)
    claimed: set[str] = set()
    written: set[str] = set()
    made: set[str] = set()
    try:
        for publication, resolutions, dblp_key in harvested:
            shared: list[str] = []
            if coauthors is not None:
                shared = common_coauthors(latin_names(resolutions), coauthors)
            relative = claim_spf_path(publication, claimed)
            target = os.path.join(root, relative)
            if not _within(root, target):
                raise OSError(f"BHT path {target!r} leaves {root!r}")
            entry = build_entry(publication, resolutions, shared, dblp_key)
            directory = os.path.dirname(target)
            if directory not in made:
                os.makedirs(directory, exist_ok=True)
                made.add(directory)
            overwrite(target, render_spf(entry).encode("ascii"))
            written.add(relative)
    finally:
        remove_unclaimed(root, written)


def concatenate(root: str) -> int:
    """Write all.bht in every directory that holds single-publication files.

    Files concatenate in lexicographic filename order; an existing
    all.bht never feeds its own replacement, so reruns are idempotent.
    An all.bht in a directory without other BHT files is removed, and so
    is every directory left empty but the root.  Returns the number of
    all.bht files written.  A directory that fails is logged and skipped;
    after the others, the first failure is raised as an ``OSError``.
    """
    written = 0
    failures: list[str] = []
    for directory, _, filenames in os.walk(root, topdown=False):
        parts = sorted(name for name in filenames if _is_part(name))
        target = os.path.join(directory, "all.bht")
        try:
            if not parts:
                if "all.bht" in filenames:
                    os.remove(target)
                _remove_if_empty(directory, root)
                continue
            chunks = []
            for name in parts:
                with open(os.path.join(directory, name), "rb") as handle:
                    chunks.append(handle.read())
            overwrite(target, b"".join(chunks))
        except OSError as exc:
            log.error("cannot concatenate in %s: %s", directory, exc)
            failures.append(f"{directory}: {exc}")
            continue
        written += 1
    if failures:
        raise OSError(
            f"cannot concatenate in {failures[0]} (failed directories: {len(failures)})"
        )
    return written
