"""In-process OAI-PMH data provider for tests, demos and replay runs.

Serves ListRecords with resumption-token pagination and GetRecord with
deleted-record and idDoesNotExist handling over the ``fetch(url) ->
bytes`` transport interface of the client.  Records are junii2 only.
"""

import urllib.parse
from dataclasses import dataclass
from xml.sax.saxutils import escape

__all__ = ["MockDataProvider", "MockRecord", "junii2_payload"]

OAI_NS = "http://www.openarchives.org/OAI/2.0/"
JUNII2_NS = "http://irdb.example.org/junii2/"
FORMATS = ("junii2",)


@dataclass
class MockRecord:
    number: int
    datestamp: str = "2012-10-19"
    deleted: bool = False
    payload: str = ""  # serialized junii2 metadata element


def junii2_payload(
    titles: list[tuple[str, str]],
    creators: list[str],
    publication_type: str = "Journal Article",
    date: str = "2011-10-15",
    volume: str = "",
    issue: str = "",
    spage: str = "",
    epage: str = "",
    language: str = "jpn",
    uri: str = "",
    contributors: list[str] = (),
    descriptions: list[str] = (),
) -> str:
    """Serialize one junii2 metadata element for the mock provider."""
    parts = [f'<junii2 xmlns="{JUNII2_NS}">']
    for text, lang in titles:
        parts.append(f'<title xml:lang="{lang}">{escape(text)}</title>')
    for creator in creators:
        parts.append(f"<creator>{escape(creator)}</creator>")
    for contributor in contributors:
        parts.append(f"<contributor>{escape(contributor)}</contributor>")
    for description in descriptions:
        parts.append(f"<description>{escape(description)}</description>")
    if publication_type:
        parts.append(f"<NIItype>{escape(publication_type)}</NIItype>")
    if date:
        parts.append(f"<dateofissued>{escape(date)}</dateofissued>")
    if volume:
        parts.append(f"<volume>{escape(volume)}</volume>")
    if issue:
        parts.append(f"<issue>{escape(issue)}</issue>")
    if spage:
        parts.append(f"<spage>{escape(spage)}</spage>")
    if epage:
        parts.append(f"<epage>{escape(epage)}</epage>")
    if language:
        parts.append(f"<language>{escape(language)}</language>")
    if uri:
        parts.append(f"<URI>{escape(uri)}</URI>")
    parts.append("</junii2>")
    return "".join(parts)


class MockDataProvider:
    """A repository addressed through the client's fetch interface."""

    id_prefix = "oai:mock:"

    def __init__(self, records: list[MockRecord], page_size: int = 100):
        self.records = sorted(records, key=lambda r: r.number)
        self.by_number = {r.number: r for r in self.records}
        self.page_size = page_size

    def identifier(self, number: int) -> str:
        return f"{self.id_prefix}{number}"

    # -- transport entry point -------------------------------------------

    def fetch(self, url: str) -> bytes:
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)
        params = {key: values[0] for key, values in query.items()}
        verb = params.get("verb", "")
        if verb == "ListRecords":
            body = self._list_records(params)
        elif verb == "GetRecord":
            body = self._get_record(params)
        else:
            body = self._error("badVerb", f"unsupported verb {verb!r}")
        return self._envelope(verb, body).encode("utf-8")

    # -- verbs -------------------------------------------------------------

    def _list_records(self, params: dict[str, str]) -> str:
        token = params.get("resumptionToken")
        if token is None:
            prefix = params.get("metadataPrefix", "")
            if prefix not in FORMATS:
                return self._error(
                    "cannotDisseminateFormat", f"unknown prefix {prefix!r}"
                )
            offset = 0
        else:
            if not token.isdigit() or int(token) >= len(self.records):
                return self._error("badResumptionToken", f"bad token {token!r}")
            offset = int(token)
        page = self.records[offset : offset + self.page_size]
        if not page:
            return self._error("noRecordsMatch", "repository is empty")
        parts = ["<ListRecords>"]
        for record in page:
            parts.append(self._record_xml(record))
        remaining = offset + self.page_size
        if remaining < len(self.records):
            parts.append(f"<resumptionToken>{remaining}</resumptionToken>")
        parts.append("</ListRecords>")
        return "".join(parts)

    def _get_record(self, params: dict[str, str]) -> str:
        prefix = params.get("metadataPrefix", "")
        if prefix not in FORMATS:
            return self._error("cannotDisseminateFormat", f"unknown prefix {prefix!r}")
        identifier = params.get("identifier", "")
        number = identifier.rsplit(":", 1)[-1]
        record = self.by_number.get(int(number)) if number.isdigit() else None
        if record is None:
            return self._error("idDoesNotExist", identifier)
        return f"<GetRecord>{self._record_xml(record)}</GetRecord>"

    # -- helpers -----------------------------------------------------------

    def _record_xml(self, record: MockRecord) -> str:
        status = ' status="deleted"' if record.deleted else ""
        header = (
            f"<header{status}>"
            f"<identifier>{self.identifier(record.number)}</identifier>"
            f"<datestamp>{record.datestamp}</datestamp>"
            "</header>"
        )
        if record.deleted:
            return f"<record>{header}</record>"
        return f"<record>{header}<metadata>{record.payload}</metadata></record>"

    def _error(self, code: str, message: str) -> str:
        return f'<error code="{code}">{escape(message)}</error>'

    def _envelope(self, verb: str, body: str) -> str:
        return (
            '<?xml version="1.0" encoding="UTF-8"?>'
            f'<OAI-PMH xmlns="{OAI_NS}">'
            "<responseDate>2012-10-19T00:00:00Z</responseDate>"
            f'<request verb="{verb}"/>'
            f"{body}"
            "</OAI-PMH>"
        )
