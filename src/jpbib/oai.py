"""OAI-PMH client: record listing, single-record retrieval, junii2 parsing.

Transport is a plain callable ``fetch(url) -> bytes`` so tests and replay
runs can serve canned XML; the default implementation does an HTTP GET
and raises ``TransportError`` for every network failure, a truncated
response included; it loads the network modules at the first request.
Both verbs send each request through ``_request``: it builds the URL,
fetches through the one retry site, ``_fetch_with_retries``, and returns
the verb element, or None for the verb's "absent" error code
(``noRecordsMatch``, ``idDoesNotExist``); any other error raises
``OaiProtocolError``.  The retry site retries only a
``TransportError``: a network failure (no HTTP status), 429 or 5xx, up
to ``RETRY_ATTEMPTS`` times, waiting an integer ``Retry-After`` (at most
``RETRY_AFTER_CAP_S``) or else an exponential backoff from
``RETRY_BACKOFF_S``; any other HTTP status fails at once.  Any other
exception of ``fetch``, such as an ``OSError`` from saving a response,
passes through at once.  Requests follow the protocol's two request
shapes: the first ListRecords call carries the metadata prefix,
continuations carry only the resumption token.

junii2 field mapping (fixed by the fixtures shipped in this repository):
``title`` elements carry per-language titles via xml:lang; ``creator``
elements hold author names, kanji and Latin forms of the same person
adjacent to each other; ``NIItype`` (or ``type``) is the publication
type; ``volume``/``issue``/``spage``/``epage`` describe the issue;
``dateofissued`` (or ``date``) the date; ``language`` uses jpn/eng
codes; ``URI`` (or an http identifier) is the electronic edition;
``contributor`` and ``description`` are carried through verbatim.
"""

import itertools
import logging
import re
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator
from xml.etree import ElementTree as ET

from .transcription import has_latin

__all__ = [
    "HarvestedPublication",
    "MalformedRecordError",
    "OaiProtocolError",
    "OaiRecord",
    "TransportError",
    "get_record",
    "harvest",
    "http_fetch",
    "list_records",
    "parse_junii2",
    "replay_fetcher",
]

log = logging.getLogger(__name__)

OAI_NS = "http://www.openarchives.org/OAI/2.0/"

Fetch = Callable[[str], bytes]

RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = 0.5
RETRY_AFTER_CAP_S = 60

# A saved response's file name: its request number in at least six
# digits, then ".xml".  pipeline.saving_fetcher writes these, and
# replay_fetcher serves them and no other file.
SAVED_RESPONSE_NAME = "{:06d}.xml"


class TransportError(RuntimeError):
    """Failed fetch; ``status`` and ``retry_after`` come from an HTTP error."""

    def __init__(
        self,
        url: str,
        attempts: int,
        status: int | None = None,
        retry_after: str | None = None,
    ):
        super().__init__(f"fetch failed after {attempts} attempts: {url}")
        self.attempts = attempts
        self.status = status
        self.retry_after = retry_after


class _ReplayExhausted(TransportError):
    """No saved response is left to replay; another attempt cannot help."""


class OaiProtocolError(RuntimeError):
    """Protocol-level error element returned by the provider."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}".rstrip(": "))
        self.code = code
        self.message = message


class MalformedRecordError(ValueError):
    """Metadata payload missing required fields (e.g. all titles)."""


@dataclass
class OaiRecord:
    """One protocol record; deleted records never carry a payload."""

    identifier: str
    deleted: bool = False
    payload: ET.Element | None = None


@dataclass
class HarvestedPublication:
    """Publication metadata extracted from a junii2 payload."""

    identifier: str
    titles: list[tuple[str, str]]  # (text, language tag)
    creators: list[tuple[str | None, str | None]]  # (latin, kanji)
    publication_type: str = ""
    date: str | None = None
    pages: str | None = None
    volume: str | None = None
    number: str | None = None
    language: str = "other"
    source_url: str | None = None
    contributors: list[tuple[str, str]] = field(default_factory=list)
    descriptions: list[tuple[str, str]] = field(default_factory=list)


def http_fetch(url: str, timeout: float = 30.0) -> bytes:
    """GET ``url``; every network failure raises ``TransportError``.  The
    network modules, ``ssl`` among them, load here at the first request."""
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, headers={"User-Agent": "jpbib/0.1"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.read()
    except urllib.error.HTTPError as exc:
        retry_after = exc.headers.get("Retry-After") if exc.headers else None
        raise TransportError(url, 1, exc.code, retry_after) from exc
    except (OSError, http.client.HTTPException) as exc:
        # HTTPException covers a truncated body (IncompleteRead).
        raise TransportError(url, 1) from exc


def _fetch_with_retries(fetch: Fetch, url: str) -> bytes:
    for attempt in itertools.count(1):
        try:
            return fetch(url)
        except TransportError as exc:
            status = exc.status
            retryable = not isinstance(exc, _ReplayExhausted) and (
                status is None or status == 429 or status >= 500
            )
            if attempt == RETRY_ATTEMPTS or not retryable:
                raise TransportError(url, attempt, status) from exc
            retry_after = (exc.retry_after or "").strip()
            # Past its leading zeros, a delay with more digits than the cap
            # is over it, so int() reads at most one digit more.
            delay = retry_after.lstrip("0")[: len(str(RETRY_AFTER_CAP_S)) + 1]
            time.sleep(
                min(int(delay or 0), RETRY_AFTER_CAP_S)
                if retry_after.isdecimal()
                else RETRY_BACKOFF_S * 2 ** (attempt - 1)
            )


def _request(
    fetch: Fetch, endpoint: str, params: dict[str, str], absent: str
) -> ET.Element | None:
    """The verb element of the response to ``params``, or None when the
    provider answers with the error code ``absent``."""
    separator = "&" if "?" in endpoint else "?"
    url = endpoint + separator + urllib.parse.urlencode(params)
    root = ET.fromstring(_fetch_with_retries(fetch, url))
    error = root.find(f"{{{OAI_NS}}}error")
    if error is not None:
        code = error.get("code", "unknown")
        if code == absent:
            return None
        # Each whitespace run is one space, so the error reads on one line.
        text = error.text or ""
        raise OaiProtocolError(" ".join(code.split()), " ".join(text.split()))
    verb = params["verb"]
    body = root.find(f"{{{OAI_NS}}}{verb}")
    if body is None:
        raise OaiProtocolError("badVerb", f"response lacks a {verb} element")
    return body


def _parse_record(elem: ET.Element) -> OaiRecord:
    header = elem.find(f"{{{OAI_NS}}}header")
    identifier = elem.findtext(f"{{{OAI_NS}}}header/{{{OAI_NS}}}identifier", "").strip()
    if not identifier:
        raise OaiProtocolError("badVerb", "record lacks a header identifier")
    deleted = header.get("status") == "deleted"
    payload = None
    if not deleted:
        metadata = elem.find(f"{{{OAI_NS}}}metadata")
        if metadata is not None and len(metadata):
            payload = metadata[0]
    return OaiRecord(identifier, deleted, payload)


def list_records(
    endpoint: str, prefix: str, token: str | None = None, *, fetch: Fetch = http_fetch
) -> tuple[list[OaiRecord], str | None]:
    """One ListRecords page plus the token for the next one, if any.

    Continuation requests carry only the resumption token.
    """
    if token:
        params = {"verb": "ListRecords", "resumptionToken": token}
    else:
        params = {"verb": "ListRecords", "metadataPrefix": prefix}
    body = _request(fetch, endpoint, params, "noRecordsMatch")
    if body is None:
        return [], None
    records = [_parse_record(r) for r in body.findall(f"{{{OAI_NS}}}record")]
    token_elem = body.find(f"{{{OAI_NS}}}resumptionToken")
    next_token = None
    if token_elem is not None and token_elem.text and token_elem.text.strip():
        next_token = token_elem.text.strip()
    return records, next_token


def get_record(
    endpoint: str, prefix: str, identifier: str, *, fetch: Fetch = http_fetch
) -> OaiRecord | None:
    """A single record, or None when the provider reports idDoesNotExist."""
    params = {"verb": "GetRecord", "metadataPrefix": prefix, "identifier": identifier}
    body = _request(fetch, endpoint, params, "idDoesNotExist")
    record = None if body is None else body.find(f"{{{OAI_NS}}}record")
    return None if record is None else _parse_record(record)


def _local_name(elem: ET.Element) -> str:
    return elem.tag.rsplit("}", 1)[-1]


_LANG_ATTR = "{http://www.w3.org/XML/1998/namespace}lang"
_LANGUAGE_CODES = {"jpn": "ja", "ja": "ja", "eng": "en", "en": "en"}


# CJK punctuation and kana (adjacent ranges), then the unified ideographs.
_CJK_RE = re.compile("[\u3000-\u30ff\u4e00-\u9fff]")


def _has_cjk(text: str) -> bool:
    return _CJK_RE.search(text) is not None


def _language(code: str) -> str:
    """The tag ("ja", "en" or "other") of a jpn/eng code or of a BCP 47
    tag such as ``ja-JP``, read by its primary subtag."""
    return _LANGUAGE_CODES.get(code.lower().partition("-")[0], "other")


def _language_tag(elem: ET.Element, text: str) -> str:
    lang = elem.get(_LANG_ATTR, "")
    if lang:
        return _language(lang)
    return "ja" if _has_cjk(text) else "en"


def _pair_creators(raw: list[str]) -> list[tuple[str | None, str | None]]:
    # A kanji form and a Latin form next to each other describe the same
    # person; anything unpaired stands alone.  A creator in another script
    # (no CJK character and no Latin letter) is no Latin form of a kanji
    # neighbour.
    creators: list[tuple[str | None, str | None]] = []
    i = 0
    while i < len(raw):
        current = raw[i]
        current_kanji = _has_cjk(current)
        following = raw[i + 1] if i + 1 < len(raw) else ""
        latin, kanji = (following, current) if current_kanji else (current, following)
        if _has_cjk(kanji) and not _has_cjk(latin) and has_latin(latin):
            creators.append((latin, kanji))
            i += 2
        else:
            creators.append((None, current) if current_kanji else (current, None))
            i += 1
    return creators


def parse_junii2(payload: ET.Element, identifier: str = "") -> HarvestedPublication:
    """Extract a HarvestedPublication from one junii2 metadata element.

    Raises MalformedRecordError when the payload carries no title at all.
    """
    titles: list[tuple[str, str]] = []
    creators_raw: list[str] = []
    contributors: list[tuple[str, str]] = []
    descriptions: list[tuple[str, str]] = []
    fields: dict[str, str] = {}
    for child in payload:
        name = _local_name(child)
        text = (child.text or "").strip()
        if not text:
            continue
        if name in ("title", "alternative"):
            titles.append((text, _language_tag(child, text)))
        elif name == "creator":
            creators_raw.append(text)
        elif name == "contributor":
            contributors.append((text, _language_tag(child, text)))
        elif name == "description":
            descriptions.append((text, _language_tag(child, text)))
        elif name not in fields:
            fields[name] = text

    if not titles:
        raise MalformedRecordError(f"record {identifier or '?'} has no titles")

    pages = None
    spage, epage = fields.get("spage"), fields.get("epage")
    if spage and epage:
        pages = f"{spage}-{epage}"
    elif spage:
        pages = f"{spage}-"

    source_url = fields.get("URI")
    if not source_url:
        candidate = fields.get("identifier", "")
        if candidate.startswith("http"):
            source_url = candidate

    return HarvestedPublication(
        identifier=identifier,
        titles=titles,
        creators=_pair_creators(creators_raw),
        publication_type=fields.get("NIItype") or fields.get("type", ""),
        date=fields.get("dateofissued") or fields.get("date"),
        pages=pages,
        volume=fields.get("volume"),
        number=fields.get("issue") or fields.get("number"),
        language=_language(fields.get("language", "")),
        source_url=source_url,
        contributors=contributors,
        descriptions=descriptions,
    )


def harvest(
    endpoint: str,
    prefix: str,
    mode: str | tuple[int, int] = "list",
    *,
    fetch: Fetch = http_fetch,
    id_prefix: str = "",
) -> Iterator[tuple[OaiRecord, HarvestedPublication | None]]:
    """Stream every record of a provider exactly once.

    ``mode`` is either "list" (follow resumption tokens to exhaustion; a
    token the provider sends twice raises ``OaiProtocolError``) or
    an (min, max) id range fetched record by record; range ids are built
    as ``id_prefix`` plus the integer and unknown ids are skipped.  Each
    payload is parsed as junii2; deleted or malformed records yield None
    as their publication.
    """
    if mode == "list":
        token: str | None = None
        seen: set[str] = set()
        while True:
            records, token = list_records(endpoint, prefix, token, fetch=fetch)
            # A token that comes back would repeat its pages forever.
            if token in seen:
                raise OaiProtocolError(
                    "badResumptionToken", f"token {token!r} came back"
                )
            for record in records:
                yield record, _parse_payload(record)
            if not token:
                break
            seen.add(token)
    else:
        lower, upper = mode
        if lower > upper:
            raise ValueError(f"invalid id range: {lower} > {upper}")
        for number in range(lower, upper + 1):
            record = get_record(endpoint, prefix, f"{id_prefix}{number}", fetch=fetch)
            if record is not None:
                yield record, _parse_payload(record)


def _parse_payload(record: OaiRecord) -> HarvestedPublication | None:
    if record.deleted or record.payload is None:
        return None
    try:
        return parse_junii2(record.payload, record.identifier)
    except MalformedRecordError as exc:
        log.warning("%s", exc)
        return None


def saved_responses(directory: str) -> list[Path]:
    """The files in ``directory`` named as ``SAVED_RESPONSE_NAME`` names
    them, in number order."""
    saved = [
        path
        for path in Path(directory).glob("*.xml")
        if path.stem.isdecimal()
        and path.name == SAVED_RESPONSE_NAME.format(int(path.stem))
    ]
    return sorted(saved, key=lambda path: int(path.stem))


def replay_fetcher(directory: str) -> Fetch:
    """Serve the responses that ``pipeline.saving_fetcher`` saved in
    ``directory``, in their original request order."""
    iterator = iter(saved_responses(directory))

    def fetch(url: str) -> bytes:
        try:
            return next(iterator).read_bytes()
        except StopIteration:
            raise _ReplayExhausted(url, 1) from None

    return fetch
