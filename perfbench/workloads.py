"""Seeded synthetic inputs for the pipeline benchmark.

``generate(name, seed, directory)`` writes one workload:

- ``corpus.xml``: a DBLP-style corpus (ISO-8859-1, named entities),
- ``enamdict.txt``: an ENAMDICT-style name dictionary,
- ``responses/``: OAI-PMH responses rendered up front with the mock
  provider, in the order the harvester requests them, for
  ``oai.replay_fetcher``,
- ``manifest.json``: the planted facts the checker compares against.

The same workload name and seed give byte-identical files.  Names are
built so that every planted status follows from the documented matching
rules alone: Latin name parts are unique, family and given kanji are
distinct two-character surfaces, and no other surface of length one or
two exists, so each kanji name has exactly one valid split.
"""

import json
import random
import re
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from bench_levenshtein import random_name
from jpbib.oai_mock import MockDataProvider, MockRecord, junii2_payload
from reference import edit_distance

ENDPOINT = "http://provider.invalid/oai"
PAGE_SIZE = 100

OK = "ok"
UNDEFINED = "undefined"
NOT_FOUND = "not found in name dictionary"
BAD_DATA = "bad data quality in source"
POSSIBLE_ANOMALY = "possible name anomaly"

# Western names are built from consonant clusters no syllable-built
# dictionary entry can spell, so they never resolve against it.
WESTERN_GIVEN = [
    "Graham", "Petra", "John", "Björn", "José", "François", "Ingrid",
    "Frank", "Astrid", "Lars", "Olaf", "Pierre", "Günter", "Chris",
    "Erik", "Sven", "Martin", "Hans", "Stefan", "Ulrike",
]
WESTERN_FAMILY = [
    "Neubig", "Müller", "Smith", "García", "Jensen", "Schmidt", "Dubois",
    "Brown", "Kowalski", "Novák", "Larsen", "Weber", "Fischer", "Wagner",
    "Becker", "Hoffmann", "Schulz", "Keller", "Nyström", "Løvborg",
]
TITLE_WORDS = [
    "adaptive", "analysis", "approach", "automatic", "bibliographic",
    "corpus", "data", "detection", "dictionary", "distributed", "efficient",
    "evaluation", "extraction", "fast", "framework", "fuzzy", "graph",
    "harvesting", "indexing", "japanese", "learning", "matching", "method",
    "model", "name", "network", "parsing", "probabilistic", "query",
    "record", "retrieval", "robust", "scalable", "search", "segmentation",
    "semantic", "similarity", "statistical", "structured", "system",
    "transcription", "word",
]
PUBLICATION_TYPES = [
    "Journal Article", "Technical Report", "Conference Paper",
    "Departmental Bulletin Paper", "Article",
]
VENUES = ["IPSJ Journal", "Trans. Inf. Syst.", "Proc. NLP", "J. Nat. Lang. Proc."]

_KUNREI = [("shi", "si"), ("chi", "ti"), ("tsu", "tu"), ("fu", "hu")]
_ENTITIES = {
    "ä": "&auml;", "ö": "&ouml;", "ü": "&uuml;", "é": "&eacute;",
    "ç": "&ccedil;", "á": "&aacute;", "ø": "&oslash;",
}


@dataclass(frozen=True)
class Person:
    given: str
    family: str
    given_kanji: str
    family_kanji: str

    @property
    def latin(self) -> str:
        return f"{self.given} {self.family}"

    @property
    def kanji(self) -> str:
        return self.family_kanji + self.given_kanji


@dataclass
class Workload:
    """What run.py needs besides the files: the harvest configuration."""

    name: str
    list_records: bool
    min_id: int = 1
    max_id: int = 1
    show_common_coauthors: bool = False


class NameFactory:
    """Unique Latin names and kanji surfaces, plus their dictionary lines."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.latin: set[str] = set()
        self.surfaces: set[str] = set()
        self.lines: list[str] = []

    def _latin(self, min_length: int, long_vowel: str = "") -> str:
        while True:
            name = random_name(self.rng)
            if long_vowel and self.rng.random() < 0.4:
                name = _lengthen(name, long_vowel)
            if len(name) >= min_length and name.lower() not in self.latin:
                self.latin.add(name.lower())
                return name

    def surface(self, length: int) -> str:
        while True:
            text = "".join(
                chr(0x4E00 + self.rng.randrange(0x5000)) for _ in range(length)
            )
            if text not in self.surfaces:
                self.surfaces.add(text)
                return text

    def reading(self) -> str:
        return "".join(
            chr(0x3042 + 2 * self.rng.randrange(20)) for _ in range(self.rng.randrange(2, 5))
        )

    def person(self) -> Person:
        family = self._latin(4, "o")
        given = self._latin(3, "u")
        family_kanji, given_kanji = self.surface(2), self.surface(2)
        given_type = self.rng.choice("gmf")
        self.lines.append(f"{family_kanji} [{self.reading()}] /{family} (s)/")
        self.lines.append(f"{given_kanji} [{self.reading()}] /{given} ({given_type})/")
        return Person(given, family, given_kanji, family_kanji)

    def noise_line(self) -> str:
        """A dictionary line that names nobody the harvest contains.

        Covers the irregular shapes the parser tolerates and the entry
        types it drops; surfaces are three characters long, so they can
        never take part in a two-plus-two kanji split.
        """
        surface, reading = self.surface(3), self.reading()
        latin, other = self._latin(3), self._latin(3)
        kind = self.rng.randrange(8)
        if kind == 0:
            return f"{surface} [{reading}] /{latin} (s)"
        if kind == 1:
            return f"{surface} [{reading}] /{latin} Ko) (g)/"
        if kind == 2:
            return f"{surface} [{reading}\\ /(p) {latin}/{other}/"
        if kind == 3:
            return f"{surface} /(f) {latin}/(u) {other}/{latin}ko (m)/"
        if kind == 4:
            return f"{surface} [{reading}] /{latin} {other} (h)/"
        if kind == 5:
            return f"{surface} /{latin} (u)/"
        if kind == 6:
            return f"{surface} [{reading}] /{latin} ({self.rng.choice(['p', 'st', 'co', 'pr'])})/"
        return f"{surface} [{reading}] /{latin} (s,m)/"


def _lengthen(name: str, vowel: str) -> str:
    # Hepburn with explicit double vowels, as the dictionary writes them:
    # a final o becomes ou (Satou), a first u becomes uu (Yuuta).
    if vowel == "o" and name.endswith("o"):
        return name + "u"
    if vowel == "u":
        index = name.find("u")
        if index > 0:
            return name[: index + 1] + "u" + name[index + 1 :]
    return name


def _western(index: int) -> str:
    given = WESTERN_GIVEN[index % len(WESTERN_GIVEN)]
    family = WESTERN_FAMILY[(index // len(WESTERN_GIVEN)) % len(WESTERN_FAMILY)]
    homonym = index // (len(WESTERN_GIVEN) * len(WESTERN_FAMILY))
    return f"{given} {family}" + (f" {homonym:04d}" if homonym else "")


def _title(rng: random.Random, taken: set[str]) -> str:
    while True:
        words = [rng.choice(TITLE_WORDS) for _ in range(rng.randrange(4, 8))]
        title = " ".join(words).capitalize()
        if title.lower() not in taken:
            taken.add(title.lower())
            return title


def _kanji_title(rng: random.Random) -> str:
    return "".join(chr(0x4E00 + rng.randrange(0x5000)) for _ in range(rng.randrange(6, 12)))


def _far_from(name: str, others: list[str]) -> bool:
    """True when ``name`` cannot fuzzy-match any of ``others``.

    Its last token is two or more edits away from every token of every
    other name, so at most one token pair can ever be intersected.
    """
    last = name.split()[-1].casefold()
    return all(
        edit_distance(last, token) >= 2
        for other in others
        for token in other.casefold().split()
    )


# -- corpus -----------------------------------------------------------------


@dataclass
class CorpusEntry:
    key: str
    authors: list[str]
    title: str
    tag: str = "article"
    year: int = 2010
    venue: str = "IPSJ Journal"


def _xml_text(text: str) -> str:
    out = []
    for ch in text:
        if ch == "&":
            out.append("&amp;")
        elif ch == "<":
            out.append("&lt;")
        elif ch in _ENTITIES:
            out.append(_ENTITIES[ch])
        elif ord(ch) > 255:
            out.append(f"&#{ord(ch)};")
        else:
            out.append(ch)  # Latin-1 bytes stay raw
    return "".join(out)


def write_corpus(path: Path, entries: list[CorpusEntry], person_records: int = 0) -> None:
    parts = ['<?xml version="1.0" encoding="ISO-8859-1"?>\n<dblp>\n']
    for entry in entries:
        venue_tag = "journal" if entry.tag == "article" else "booktitle"
        parts.append(f'<{entry.tag} mdate="2012-01-01" key="{entry.key}">\n')
        for author in entry.authors:
            parts.append(f"<author>{_xml_text(author)}</author>\n")
        parts.append(f"<title>{_xml_text(entry.title)}.</title>\n")
        parts.append(f"<{venue_tag}>{_xml_text(entry.venue)}</{venue_tag}>\n")
        parts.append(f"<year>{entry.year}</year>\n</{entry.tag}>\n")
    for number in range(person_records):
        parts.append(
            f'<www mdate="2012-01-01" key="homepages/{number}">'
            f"<author>Person {number}</author><title>Home Page</title></www>\n"
        )
    parts.append("</dblp>\n")
    path.write_bytes("".join(parts).encode("latin-1"))


# -- harvested records --------------------------------------------------------

FORMS = [
    "given-first", "family-comma", "fused", "abbreviated", "fullwidth",
    "long-vowel", "kunrei", "kanji-only", "western",
]


def _fullwidth(text: str) -> str:
    return "".join(chr(ord(ch) + 0xFEE0) if "!" <= ch <= "~" else ch for ch in text)


def _long_vowel_spelling(rng: random.Random, person: Person) -> str | None:
    family, given = person.family, person.given
    if family.endswith("ou"):
        family = family[:-2] + rng.choice(["oh", "ō", "o"])
    elif "uu" in given:
        given = given.replace("uu", rng.choice(["ū", "u"]), 1)
    else:
        return None
    return f"{given} {family}"


def _kunrei_spelling(person: Person) -> str | None:
    latin = person.latin
    for hepburn, kunrei in _KUNREI:
        latin = latin.replace(hepburn, kunrei)
    return latin if latin != person.latin else None


def creator(rng: random.Random, form: str, person: Person | str) -> tuple[list[str], str]:
    """Creator elements for one author in one spelling form, and its status."""
    if form == "western":
        return [person], NOT_FOUND
    if form == "kanji-only":
        return [person.kanji], UNDEFINED
    if form == "family-comma":
        return [person.kanji, f"{person.family}, {person.given}"], OK
    if form == "fused":
        return [person.kanji, person.given + person.family.upper()], BAD_DATA
    if form == "abbreviated":
        return [person.kanji, f"{person.given[0]}. {person.family}"], POSSIBLE_ANOMALY
    if form == "fullwidth":
        return [person.kanji, _fullwidth(person.latin)], OK
    spelled = None
    if form == "long-vowel":
        spelled = _long_vowel_spelling(rng, person)
    elif form == "kunrei":
        spelled = _kunrei_spelling(person)
    return [person.kanji, spelled or person.latin], OK


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-") or "untyped"


class RecordBuilder:
    """Collects mock records and the facts planted in each of them."""

    def __init__(self, rng: random.Random, titles: set[str]):
        self.rng = rng
        self.titles = titles
        self.records: list[MockRecord] = []
        self.planted: list[dict] = []

    def add(
        self,
        number: int,
        authors: list[tuple[str, Person | str]],
        *,
        title: str | None = None,
        dblp_key: str | None = None,
        coauthors: tuple[str, ...] = (),
        malformed: bool = False,
    ) -> None:
        rng = self.rng
        # Kanji-only and Latin-only authors go last: the junii2 parser
        # pairs adjacent kanji and Latin creators.
        authors = sorted(authors, key=lambda a: a[0] in ("kanji-only", "western"))
        creators, statuses = [], []
        for form, person in authors:
            elements, status = creator(rng, form, person)
            creators += elements
            statuses.append(status)
        english = title or _title(rng, self.titles)
        japanese = rng.random() < 0.8
        titles = [] if malformed else (
            [(_kanji_title(rng), "ja"), (english, "en")] if japanese else [(english, "en")]
        )
        publication_type = rng.choice(PUBLICATION_TYPES)
        volume = str(rng.randrange(40, 60))
        spage = rng.randrange(1, 3000)
        self.records.append(
            MockRecord(
                number,
                payload=junii2_payload(
                    titles=titles,
                    creators=creators,
                    publication_type=publication_type,
                    date=f"{rng.randrange(1995, 2013)}-{rng.randrange(1, 13):02d}-15",
                    volume=volume,
                    issue=str(rng.randrange(1, 13)),
                    spage=str(spage),
                    epage=str(spage + rng.randrange(1, 20)),
                    language="jpn" if japanese else "eng",
                    uri=f"http://id.example.org/{number:08d}/",
                    descriptions=[f"Abstract {number}."] if rng.random() < 0.3 else [],
                ),
            )
        )
        self.planted.append(
            {
                "number": number,
                "identifier": f"oai:mock:{number}",
                "path": f"{_slug(publication_type)}/volume-{volume}/{number}.bht",
                "malformed": malformed,
                "statuses": statuses,
                "dblp_key": dblp_key,
                "coauthors": list(coauthors),
            }
        )

    def delete(self, number: int) -> None:
        self.records.append(MockRecord(number, deleted=True))
        self.planted.append({"number": number, "deleted": True})


def render_responses(records: list[MockRecord], workload: Workload, directory: Path) -> None:
    """Every response body the harvester will request, in request order."""
    provider = MockDataProvider(records, page_size=PAGE_SIZE)
    directory.mkdir(parents=True)
    bodies = []
    if workload.list_records:
        params = {"verb": "ListRecords", "metadataPrefix": "junii2"}
        while True:
            body = provider.fetch(f"{ENDPOINT}?{urllib.parse.urlencode(params)}")
            bodies.append(body)
            token = re.search(rb"<resumptionToken>([^<]+)</resumptionToken>", body)
            if token is None:
                break
            params = {"verb": "ListRecords", "resumptionToken": token.group(1).decode()}
    else:
        for number in range(workload.min_id, workload.max_id + 1):
            params = {
                "verb": "GetRecord",
                "metadataPrefix": "junii2",
                "identifier": provider.identifier(number),
            }
            bodies.append(provider.fetch(f"{ENDPOINT}?{urllib.parse.urlencode(params)}"))
    for index, body in enumerate(bodies, 1):
        (directory / f"{index:06d}.xml").write_bytes(body)


# -- the three workloads ------------------------------------------------------


def _random_corpus(
    rng: random.Random, authors: list[str], count: int, titles: set[str], prefix: str
) -> list[CorpusEntry]:
    """``count`` publications with 2-4 authors each; every author appears."""
    order = list(authors)
    rng.shuffle(order)
    entries = []
    for index in range(count):
        chosen = [order[index % len(order)]]
        while len(chosen) < rng.randrange(2, 5):
            candidate = rng.choice(authors)
            if candidate not in chosen:
                chosen.append(candidate)
        tag = "article" if rng.random() < 0.6 else "inproceedings"
        entries.append(
            CorpusEntry(
                f"{'journals' if tag == 'article' else 'conf'}/{prefix}/{index}",
                chosen,
                _title(rng, titles),
                tag,
                rng.randrange(1990, 2013),
                rng.choice(VENUES),
            )
        )
    return entries


def _coauthor_scan(rng, names, titles):
    """A modest harvest whose authors half come from a ~1k-name corpus."""
    people = [names.person() for _ in range(800)]
    pool = [p.latin for p in people] + [_western(i) for i in range(250)]
    corpus = _random_corpus(rng, pool, 1000, titles, "scan")
    # Query authors all have names of one length, so the scan costs the
    # same for every seed.
    typical = [p for p in people if _query_length(p)]
    records = RecordBuilder(rng, titles)
    for number in range(1, 15):
        first, second = rng.sample(typical, 2)
        newcomer = names.person()
        while not _query_length(newcomer):
            newcomer = names.person()
        query = [first.latin, second.latin, newcomer.latin]
        while True:
            shared = rng.choice(pool)
            if shared not in (first.latin, second.latin) and _far_from(shared, query):
                break
        planted = CorpusEntry(f"journals/planted/{number}a", [first.latin, shared], _title(rng, titles))
        corpus.append(planted)
        corpus.append(CorpusEntry(f"journals/planted/{number}b", [shared, second.latin], _title(rng, titles)))
        duplicate = number % 4 == 0
        records.add(
            number,
            [
                (rng.choice(["given-first", "family-comma"]), first),
                ("given-first", second),
                (rng.choice(["given-first", "family-comma", "fullwidth"]), newcomer),
            ],
            title=planted.title.lower() if duplicate else None,
            dblp_key=planted.key if duplicate else None,
            coauthors=(shared,),
        )
    lines = names.lines + [names.noise_line() for _ in range(200)]
    workload = Workload("coauthor-scan", list_records=True, show_common_coauthors=True)
    return workload, corpus, lines, records, 0


def _query_length(person: Person) -> bool:
    return len(person.given) + len(person.family) == 12


def _harvest_bulk(rng, names, titles):
    """Thousands of records over every spelling form; a small corpus."""
    people = [names.person() for _ in range(2500)]
    western = [_western(i) for i in range(100)]
    in_corpus = people[:200]
    corpus = _random_corpus(rng, [p.latin for p in in_corpus] + western, 300, titles, "bulk")
    records = RecordBuilder(rng, titles)
    for number in range(1, 1201):
        if number % 100 == 50:
            records.delete(number)
            continue
        authors = []
        for _ in range(rng.randrange(3, 8)):
            form = rng.choice(FORMS)
            authors.append((form, rng.choice(western) if form == "western" else rng.choice(people)))
        if sum(form in ("kanji-only", "western") for form, _ in authors) > 1:
            authors = [a for a in authors if a[0] not in ("kanji-only", "western")] or [
                ("given-first", rng.choice(people))
            ]
        title = key = None
        if number % 40 == 7:
            entry = corpus[rng.randrange(len(corpus))]
            author = next((p for p in in_corpus if p.latin == entry.authors[0]), None)
            if author is not None:
                authors = [("given-first", author)] + [
                    a for a in authors if a[0] not in ("kanji-only", "western")
                ]
                title, key = entry.title, entry.key
        records.add(number, authors, title=title, dblp_key=key, malformed=number % 200 == 99)
    lines = names.lines + [names.noise_line() for _ in range(500)]
    workload = Workload("harvest-bulk", list_records=True)
    return workload, corpus, lines, records, 0


def _ingest_scale(rng, names, titles):
    """A large corpus and dictionary; a small id-range harvest with gaps."""
    people = [names.person() for _ in range(6000)]
    western = [_western(i) for i in range(2000)]
    corpus = _random_corpus(rng, [p.latin for p in people[:3500]] + western, 10000, titles, "scale")
    records = RecordBuilder(rng, titles)
    for number in range(1, 61):
        if number % 7 == 3:
            continue  # a gap: the provider answers idDoesNotExist
        if number % 20 == 0:
            records.delete(number)
            continue
        authors = [(rng.choice(FORMS[:7]), rng.choice(people)) for _ in range(rng.randrange(1, 4))]
        title = key = None
        if number % 5 == 1:
            entry = corpus[rng.randrange(len(corpus))]
            author = next((p for p in people[:3500] if p.latin == entry.authors[0]), None)
            if author is not None:
                authors = [("given-first", author)] + authors
                title, key = entry.title, entry.key
        records.add(number, authors, title=title, dblp_key=key)
    lines = names.lines + [names.noise_line() for _ in range(4000)]
    workload = Workload("ingest-scale", list_records=False, min_id=1, max_id=60)
    return workload, corpus, lines, records, 2000


BUILDERS = {
    "coauthor-scan": _coauthor_scan,
    "harvest-bulk": _harvest_bulk,
    "ingest-scale": _ingest_scale,
}


def generate(name: str, seed: int, directory: Path) -> Workload:
    """Write the inputs and planted facts of one workload into ``directory``."""
    rng = random.Random(f"{name}:{seed}")
    names = NameFactory(rng)
    titles: set[str] = set()
    workload, corpus, lines, records, person_records = BUILDERS[name](rng, names, titles)
    directory.mkdir(parents=True, exist_ok=True)
    write_corpus(directory / "corpus.xml", corpus, person_records)
    header = "？？？？ /Synthetic name dictionary/Created: 2012-10-19/"
    (directory / "enamdict.txt").write_text(
        "\n".join([header] + lines) + "\n", encoding="utf-8"
    )
    render_responses(records.records, workload, directory / "responses")
    manifest = {"workload": name, "seed": seed, "records": records.planted}
    (directory / "manifest.json").write_text(json.dumps(manifest, ensure_ascii=False, indent=1))
    return workload
