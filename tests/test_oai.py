"""OAI-PMH client behaviour against the in-process mock provider."""

import email.message
import http.client
import io
import urllib.error
import urllib.parse
import xml.etree.ElementTree as ET

import pytest

from jpbib import oai
from jpbib.oai import (
    OAI_NS,
    RETRY_AFTER_CAP_S,
    MalformedRecordError,
    OaiProtocolError,
    TransportError,
    get_record,
    harvest,
    http_fetch,
    list_records,
    parse_junii2,
    replay_fetcher,
)
from jpbib.oai_mock import MockDataProvider, MockRecord, junii2_payload
from jpbib.pipeline import saving_fetcher

from mockrepo import (
    ALL_IDS,
    DELETED_IDS,
    GOLDEN_ID,
    MALFORMED_ID,
    build_provider,
    repeating_first_page,
)

ENDPOINT = "http://example.org/oai?action=repository_oaipmh"


@pytest.fixture()
def provider():
    return build_provider()


@pytest.fixture()
def sleeps(monkeypatch):
    """Every wait of the retry site, in seconds, without waiting."""
    waits = []
    monkeypatch.setattr(oai.time, "sleep", waits.append)
    return waits


class _FailingResponse(io.BytesIO):
    """A response whose body read raises ``error``."""

    def __init__(self, error: Exception):
        super().__init__()
        self.error = error

    def read(self, *args):
        raise self.error


def serve_http(monkeypatch, provider, *errors):
    """Let urlopen raise HTTP errors, given as (status, Retry-After), or
    return a response whose read raises an exception given as such, then
    serve the provider; returns the list of requested URLs."""
    pending = list(errors)
    requested = []

    def urlopen(request, timeout):
        requested.append(request.full_url)
        if pending and isinstance(pending[0], Exception):
            return _FailingResponse(pending.pop(0))
        if pending:
            status, retry_after = pending.pop(0)
            headers = email.message.Message()
            if retry_after is not None:
                headers["Retry-After"] = retry_after
            raise urllib.error.HTTPError(
                request.full_url, status, "error", headers, None
            )
        return io.BytesIO(provider.fetch(request.full_url))

    monkeypatch.setattr(oai.urllib.request, "urlopen", urlopen)
    return requested


def test_pagination_three_pages(provider):
    pages = []
    token = None
    while True:
        records, token = list_records(
            ENDPOINT, "junii2", token, fetch=provider.fetch
        )
        pages.append(records)
        if token is None:
            break
    assert [len(page) for page in pages] == [100, 100, 50]
    identifiers = [r.identifier for page in pages for r in page]
    assert len(identifiers) == len(set(identifiers)) == 250
    assert set(identifiers) == {provider.identifier(n) for n in ALL_IDS}


def test_every_page_but_last_is_full(provider):
    token = None
    sizes = []
    while True:
        records, token = list_records(ENDPOINT, "junii2", token, fetch=provider.fetch)
        sizes.append(len(records))
        if token is None:
            break
    assert all(size == provider.page_size for size in sizes[:-1])


def test_empty_repository():
    empty = MockDataProvider([])
    records, token = list_records(ENDPOINT, "junii2", fetch=empty.fetch)
    assert records == [] and token is None


def test_bad_resumption_token(provider):
    with pytest.raises(OaiProtocolError) as info:
        list_records(ENDPOINT, "junii2", "not-a-token", fetch=provider.fetch)
    assert info.value.code == "badResumptionToken"


def test_superscript_resumption_token_is_bad(provider):
    # "²" is a digit but not a decimal, so int() would reject it.
    with pytest.raises(OaiProtocolError) as info:
        list_records(ENDPOINT, "junii2", "²", fetch=provider.fetch)
    assert info.value.code == "badResumptionToken"


def test_get_record_with_superscript_number_does_not_exist(provider):
    assert get_record(ENDPOINT, "junii2", "oai:mock:²", fetch=provider.fetch) is None


# int() refuses a decimal string of more than 4,300 digits with a ValueError.
HUGE = "9" * 5000


def test_resumption_token_beyond_the_int_digit_limit_is_bad(provider):
    with pytest.raises(OaiProtocolError) as info:
        list_records(ENDPOINT, "junii2", HUGE, fetch=provider.fetch)
    assert info.value.code == "badResumptionToken"


def test_get_record_number_beyond_the_int_digit_limit_does_not_exist(provider):
    identifier = f"oai:mock:{HUGE}"
    assert get_record(ENDPOINT, "junii2", identifier, fetch=provider.fetch) is None


def test_unknown_prefix(provider):
    with pytest.raises(OaiProtocolError) as info:
        list_records(ENDPOINT, "nope", fetch=provider.fetch)
    assert info.value.code == "cannotDisseminateFormat"


def test_get_record_existing(provider):
    record = get_record(
        ENDPOINT, "junii2", provider.identifier(GOLDEN_ID), fetch=provider.fetch
    )
    assert record is not None
    assert not record.deleted
    assert record.payload is not None


def test_get_record_deleted(provider):
    record = get_record(
        ENDPOINT, "junii2", provider.identifier(247), fetch=provider.fetch
    )
    assert record is not None
    assert record.deleted
    assert record.payload is None


def test_get_record_not_found(provider):
    assert (
        get_record(ENDPOINT, "junii2", provider.identifier(99999), fetch=provider.fetch)
        is None
    )
    assert (
        get_record(ENDPOINT, "junii2", provider.identifier(137), fetch=provider.fetch)
        is None
    )


@pytest.mark.parametrize(
    "header",
    [
        "",
        "<header><datestamp>2012-10-19</datestamp></header>",
        "<header><identifier> </identifier></header>",
    ],
    ids=["no-header", "no-identifier", "blank-identifier"],
)
def test_record_without_a_header_identifier_is_a_protocol_error(header):
    record = f"<record>{header}<metadata><x/></metadata></record>"

    def fetch(url):
        [verb] = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)["verb"]
        return f'<OAI-PMH xmlns="{OAI_NS}"><{verb}>{record}</{verb}></OAI-PMH>'.encode()

    for request in (
        lambda: list_records(ENDPOINT, "junii2", fetch=fetch),
        lambda: get_record(ENDPOINT, "junii2", "oai:mock:1", fetch=fetch),
    ):
        with pytest.raises(OaiProtocolError) as info:
            request()
        assert info.value.code == "badVerb"
        assert info.value.message == "record lacks a header identifier"


def test_response_without_its_verb_element_is_a_protocol_error():
    # A well-formed answer to another verb: the provider mixed up requests.
    body = f'<OAI-PMH xmlns="{OAI_NS}"><Identify/></OAI-PMH>'.encode()
    for verb, request in (
        ("ListRecords", lambda: list_records(ENDPOINT, "junii2", fetch=lambda url: body)),
        ("GetRecord", lambda: get_record(ENDPOINT, "junii2", "x", fetch=lambda url: body)),
    ):
        with pytest.raises(OaiProtocolError) as info:
            request()
        assert info.value.code == "badVerb"
        assert info.value.message == f"response lacks a {verb} element"


def test_transport_error_carries_attempts(sleeps):
    def failing(url: str) -> bytes:
        raise TransportError(url, 1)

    with pytest.raises(TransportError) as info:
        list_records(ENDPOINT, "junii2", fetch=failing)
    assert info.value.attempts == 3
    assert info.value.status is None
    assert sleeps == [0.5, 1.0]


def test_transport_retry_recovers(provider, sleeps):
    calls = {"n": 0}

    def flaky(url: str) -> bytes:
        calls["n"] += 1
        if calls["n"] < 3:
            # As http_fetch reports a reset connection.
            raise TransportError(url, 1)
        return provider.fetch(url)

    record = get_record(
        ENDPOINT, "junii2", provider.identifier(GOLDEN_ID), fetch=flaky
    )
    assert record is not None and record.payload is not None
    assert calls["n"] == 3
    assert sleeps == [0.5, 1.0]


def test_replay_out_of_responses_fails_at_once(tmp_path, sleeps):
    with pytest.raises(TransportError) as info:
        list_records(ENDPOINT, "junii2", fetch=replay_fetcher(str(tmp_path)))
    assert info.value.attempts == 1
    assert sleeps == []


def test_http_error_carries_status_and_retry_after(monkeypatch, provider):
    serve_http(monkeypatch, provider, (503, "7"))
    with pytest.raises(TransportError) as info:
        http_fetch(ENDPOINT)
    assert info.value.status == 503
    assert info.value.retry_after == "7"


def test_client_error_fails_after_one_attempt(monkeypatch, provider, sleeps):
    requested = serve_http(monkeypatch, provider, (404, None))
    with pytest.raises(TransportError) as info:
        list_records(ENDPOINT, "junii2")
    assert info.value.attempts == 1
    assert info.value.status == 404
    assert len(requested) == 1
    assert sleeps == []


def test_truncated_response_is_retried_as_a_network_failure(
    monkeypatch, provider, sleeps
):
    truncated = [http.client.IncompleteRead(b"<OAI-PMH", 100)] * 3
    requested = serve_http(monkeypatch, provider, *truncated)
    with pytest.raises(TransportError) as info:
        list_records(ENDPOINT, "junii2")
    assert info.value.attempts == 3
    assert info.value.status is None
    assert len(requested) == 3
    assert sleeps == [0.5, 1.0]


def test_truncated_response_recovers(monkeypatch, provider, sleeps):
    serve_http(monkeypatch, provider, http.client.IncompleteRead(b"", 10))
    records, _ = list_records(ENDPOINT, "junii2")
    assert len(records) == 100
    assert sleeps == [0.5]


def test_retry_after_is_honoured_and_capped(monkeypatch, provider, sleeps):
    serve_http(monkeypatch, provider, (503, "7"), (503, "86400"))
    records, _ = list_records(ENDPOINT, "junii2")
    assert len(records) == 100
    assert sleeps == [7, RETRY_AFTER_CAP_S]


def test_retry_after_beyond_the_int_digit_limit_waits_the_cap(
    monkeypatch, provider, sleeps
):
    # Leading zeros count for nothing, however many there are.
    serve_http(monkeypatch, provider, (503, HUGE), (503, "0" * 5000 + "7"))
    records, _ = list_records(ENDPOINT, "junii2")
    assert len(records) == 100
    assert sleeps == [RETRY_AFTER_CAP_S, 7]


def test_backoff_without_integer_retry_after(monkeypatch, provider, sleeps):
    serve_http(
        monkeypatch, provider, (429, "\u00b2"), (500, "Wed, 21 Oct 2015 07:28:00 GMT")
    )
    record = get_record(ENDPOINT, "junii2", provider.identifier(GOLDEN_ID))
    assert record is not None
    assert sleeps == [0.5, 1.0]


def test_parse_junii2_golden(provider):
    record = get_record(
        ENDPOINT, "junii2", provider.identifier(GOLDEN_ID), fetch=provider.fetch
    )
    publication = parse_junii2(record.payload, record.identifier)
    assert publication.titles == [
        ("点予測による自動単語分割", "ja"),
        ("A Pointwise Approach to Automatic Word Segmentation", "en"),
    ]
    assert publication.creators == [
        ("Shinsuke Mori", "森信介"),
        ("Graham Neubig", "ニュービッググラム"),
        ("Yuuta Tsuboi", "坪井祐太"),
    ]
    assert publication.publication_type == "Journal Article"
    assert publication.volume == "52"
    assert publication.number == "10"
    assert publication.pages == "2944-2952"
    assert publication.language == "ja"
    assert publication.source_url == "http://id.nii.ac.jp/1001/00078161/"


def test_parse_junii2_english_only():
    payload = junii2_payload(
        titles=[("Only English", "en")], creators=["Jane Doe"], language="eng"
    )
    publication = parse_junii2(ET.fromstring(payload), "oai:mock:1")
    assert publication.language == "en"
    assert publication.titles == [("Only English", "en")]
    assert publication.creators == [("Jane Doe", None)]


def test_parse_junii2_pairs_kanji_only_with_a_latin_neighbour():
    # A Cyrillic creator is no Latin form of the kanji after it: the kanji
    # pairs with the Latin name on its other side.  Accented and fullwidth
    # letters count as Latin.
    payload = junii2_payload(
        titles=[("T", "en")],
        creators=[
            "Иван Петров", "森信介", "Shinsuke Mori", "Ｅｍｉ", "森", "Ōta", "太田"
        ],
    )
    publication = parse_junii2(ET.fromstring(payload), "oai:mock:1")
    assert publication.creators == [
        ("Иван Петров", None),
        ("Shinsuke Mori", "森信介"),
        ("Ｅｍｉ", "森"),
        ("Ōta", "太田"),
    ]


def test_parse_junii2_reads_the_primary_subtag_of_a_language_tag():
    from jpbib.bht import build_entry

    payload = junii2_payload(
        titles=[
            ("点予測による単語分割", "ja-JP"),
            ("Pointwise Word Segmentation", "EN-us"),
            ("Punktweise Segmentierung", "de-DE"),
        ],
        creators=["森信介"],
        language="ja-JP",
    )
    publication = parse_junii2(ET.fromstring(payload), "oai:mock:1")
    assert publication.titles == [
        ("点予測による単語分割", "ja"),
        ("Pointwise Word Segmentation", "en"),
        ("Punktweise Segmentierung", "other"),
    ]
    assert publication.language == "ja"
    entry = build_entry(publication, [])
    assert entry.title == "Pointwise Word Segmentation"
    assert entry.original_title == ("点予測による単語分割", "ja", "Journal Article")


def test_parse_junii2_without_titles_raises():
    payload = junii2_payload(titles=[], creators=["森信介"])
    with pytest.raises(MalformedRecordError):
        parse_junii2(ET.fromstring(payload), "oai:mock:60")


def test_parse_junii2_contributors_and_descriptions():
    payload = junii2_payload(
        titles=[("T", "en")],
        creators=[],
        contributors=["情報処理学会"],
        descriptions=["An abstract."],
    )
    publication = parse_junii2(ET.fromstring(payload), "x")
    assert publication.contributors == [("情報処理学会", "ja")]
    assert publication.descriptions == [("An abstract.", "en")]


def test_parse_junii2_open_page_range_and_identifier_url():
    payload = junii2_payload(titles=[("T", "en")], creators=[], spage="12")
    payload = payload.replace(
        "</junii2>", "<identifier>http://example.org/12</identifier></junii2>"
    )
    publication = parse_junii2(ET.fromstring(payload), "x")
    # A start page alone leaves the range open; with no <URI>, an http
    # <identifier> is the electronic edition.
    assert publication.pages == "12-"
    assert publication.source_url == "http://example.org/12"


def test_harvest_list_mode_yields_all(provider):
    results = list(harvest(ENDPOINT, "junii2", "list", fetch=provider.fetch))
    assert len(results) == 250
    deleted = [record for record, publication in results if record.deleted]
    assert len(deleted) == 5
    assert all(
        publication is None
        for record, publication in results
        if record.deleted
    )


def test_harvest_modes_agree(provider):
    listed = {
        record.identifier: publication
        for record, publication in harvest(
            ENDPOINT, "junii2", "list", fetch=provider.fetch
        )
    }
    ranged = {
        record.identifier: publication
        for record, publication in harvest(
            ENDPOINT,
            "junii2",
            (1, 300),
            fetch=provider.fetch,
            id_prefix=provider.id_prefix,
        )
    }
    assert set(listed) == set(ranged)
    assert listed == ranged


def test_harvest_skips_gap_ids(provider):
    results = list(
        harvest(
            ENDPOINT,
            "junii2",
            (130, 140),
            fetch=provider.fetch,
            id_prefix=provider.id_prefix,
        )
    )
    numbers = [int(record.identifier.rsplit(":", 1)[-1]) for record, _ in results]
    assert 137 not in numbers
    assert numbers == [130, 131, 132, 133, 134, 135, 136, 138, 139, 140]


def test_harvest_all_deleted_range(provider):
    results = list(
        harvest(
            ENDPOINT,
            "junii2",
            (247, 251),
            fetch=provider.fetch,
            id_prefix=provider.id_prefix,
        )
    )
    assert len(results) == 5
    assert all(record.deleted and publication is None for record, publication in results)


def test_harvest_malformed_record_continues(provider):
    results = dict(
        (record.identifier, publication)
        for record, publication in harvest(
            ENDPOINT, "junii2", "list", fetch=provider.fetch
        )
    )
    assert results[provider.identifier(MALFORMED_ID)] is None
    parsed = [p for p in results.values() if p is not None]
    assert len(parsed) == 244  # 250 - 5 deleted - 1 malformed


def test_harvest_repeated_resumption_token_fails(provider):
    harvested = []
    with pytest.raises(OaiProtocolError) as info:
        for record, _ in harvest(
            ENDPOINT, "junii2", "list", fetch=repeating_first_page(provider)
        ):
            harvested.append(record.identifier)
    assert info.value.code == "badResumptionToken"
    assert len(harvested) == len(set(harvested)) == provider.page_size


def test_harvest_invalid_range(provider):
    with pytest.raises(ValueError):
        list(harvest(ENDPOINT, "junii2", (10, 5), fetch=provider.fetch))


def test_continuation_carries_only_the_token(provider):
    seen = []

    def spying(url: str) -> bytes:
        seen.append(dict(urllib.parse.parse_qsl(urllib.parse.urlsplit(url).query)))
        return provider.fetch(url)

    _, token = list_records(ENDPOINT, "junii2", fetch=spying)
    list_records(ENDPOINT, "junii2", token, fetch=spying)
    assert seen[0]["metadataPrefix"] == "junii2"
    assert seen[1] == {
        "action": "repository_oaipmh",
        "verb": "ListRecords",
        "resumptionToken": "100",
    }


def test_save_and_replay(tmp_path, provider):
    save_dir = tmp_path / "responses"
    with saving_fetcher(provider.fetch, str(save_dir)) as fetch:
        first = [
            (record.identifier, publication)
            for record, publication in harvest(ENDPOINT, "junii2", "list", fetch=fetch)
        ]
    assert len(list(save_dir.glob("*.xml"))) == 3
    replayed = [
        (record.identifier, publication)
        for record, publication in harvest(
            ENDPOINT, "junii2", "list", fetch=replay_fetcher(str(save_dir))
        )
    ]
    assert first == replayed


def test_saved_responses_past_six_digits_are_listed_in_number_order(tmp_path):
    # The writer's name for response 1,000,000 has seven digits; a name
    # padded past six digits is none of the writer's names.
    names = ["000002.xml", "999999.xml", "1000000.xml", "0000004.xml", "notes.xml"]
    for name in names:
        (tmp_path / name).write_bytes(name.encode())
    assert [path.name for path in oai.saved_responses(str(tmp_path))] == names[:3]


def test_replay_serves_only_saved_responses_in_number_order(tmp_path, sleeps):
    for name in ("000001.xml", "0000004.xml", "notes.xml", "000002.xml"):
        (tmp_path / name).write_bytes(name.encode())
    fetch = replay_fetcher(str(tmp_path))
    assert oai._fetch_with_retries(fetch, "first") == b"000001.xml"
    assert oai._fetch_with_retries(fetch, "second") == b"000002.xml"
    with pytest.raises(TransportError) as info:
        oai._fetch_with_retries(fetch, "third")
    assert info.value.attempts == 1
    assert sleeps == []
