"""Command-line pipeline tying the stages together.

Four stages, run in a fixed order: corpus ingestion (-d), dictionary
build (-e), harvest with matching, persistence and file export (-h),
and per-directory concatenation (-b).  The harvest stage needs the
stores produced by the first two; violations are rejected before any
work starts.  -h is the harvest flag, so help hides behind --help/-help.
"""

import argparse
import datetime
import logging
import os
import sqlite3
import sys
import xml.etree.ElementTree as ET
from contextlib import contextmanager, nullcontext
from typing import Iterator

from .bht import concatenate, export, overwrite, remove_unclaimed
from .config import Config, ConfigError, parse_config
from .dblp import find_publication, iter_corpus
from .enamdict import (
    DictionaryEncodingError,
    ParseWarning,
    iter_records,
    open_dictionary,
)
from .matching import NameDictionary, latin_names, resolve_author
from .oai import (
    SAVED_RESPONSE_NAME,
    Fetch,
    OaiProtocolError,
    TransportError,
    harvest,
    http_fetch,
    saved_responses,
)
from .similarity import MatchConfig
from .stats import RecordOutcome, RunStatistics
from .store import SqliteStore

__all__ = ["PrerequisiteError", "main", "run"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_PREREQUISITE = 3
EXIT_IO = 4

USAGE = """\
usage: jpbib [--config PATH] [flags]

flags:
  -d, --parse-dblp        parse the corpus XML file and fill its tables
  -e, --enamdict          convert the name dictionary file to a table
  -h, --harvest           harvest the provider, match names, store the
                          results and write one BHT file per publication
                          (requires the corpus and dictionary tables)
  -b, --concatenate-bht   concatenate BHT files into one all.bht per
                          directory (requires BHT files)
  -a, --all               all of the above, in order
  --help, -help           show this help text

options:
  --config PATH           configuration file (default: ./config.ini)
"""


class PrerequisiteError(RuntimeError):
    """A selected stage is missing the output of an earlier stage."""


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jpbib", add_help=False, usage=USAGE)
    parser.add_argument("-d", "--parse-dblp", action="store_true", dest="parse_dblp")
    parser.add_argument("-e", "--enamdict", action="store_true", dest="enamdict")
    parser.add_argument("-h", "--harvest", action="store_true", dest="harvest")
    parser.add_argument(
        "-b", "--concatenate-bht", action="store_true", dest="concatenate_bht"
    )
    parser.add_argument("-a", "--all", action="store_true", dest="run_all")
    parser.add_argument("--help", "-help", action="store_true", dest="show_help")
    parser.add_argument("--config", default="config.ini")
    return parser


@contextmanager
def _logging_to_file(config: Config) -> Iterator[None]:
    """Send the package's log to a timestamped file under ``[log] path``
    for the duration of the block."""
    log_dir = config.resolve(config.log_path)
    os.makedirs(log_dir, exist_ok=True)
    timestamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    handler = logging.FileHandler(
        os.path.join(log_dir, f"run-{timestamp}.log"), encoding="utf-8"
    )
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
    )
    package_logger = logging.getLogger("jpbib")
    package_logger.setLevel(logging.INFO)
    package_logger.addHandler(handler)
    try:
        yield
    finally:
        package_logger.removeHandler(handler)
        handler.close()


def stage_parse_dblp(config: Config, store: SqliteStore) -> None:
    path = config.resolve(config.dblp_xml_file)
    log.info("parsing corpus file %s", path)
    with open(path, "rb") as handle:
        publications, edge_count = store.replace_corpus(iter_corpus(handle))
    log.info("stored %d publications and %d coauthor pairs", publications, edge_count)


def stage_enamdict(config: Config, store: SqliteStore) -> None:
    """Replace the names table with the dictionary file's records, inserted
    as they are parsed; each warning is logged as its line is read."""
    path = config.resolve(config.enamdict_file)
    log.info("converting name dictionary %s", path)
    warnings = 0

    def report(warning: ParseWarning) -> None:
        nonlocal warnings
        warnings += 1
        log.warning(
            "dictionary line %d (%s): %s",
            warning.line_number,
            warning.kind,
            warning.raw,
        )

    # A decode error surfaces inside the insert, which then rolls back.
    with open_dictionary(path) as lines:
        count = store.replace_names(
            iter_records(lines, report, config.use_unclassified_names)
        )
    log.info("stored %d name records (%d warnings)", count, warnings)


@contextmanager
def saving_fetcher(fetch: Fetch, directory: str) -> Iterator[Fetch]:
    """``fetch`` that also saves each response body in ``directory``, as
    ``000001.xml`` onwards in request order, for ``oai.replay_fetcher``.
    Each file is rewritten in place, as every other output file is.  When
    the block ends, by an exception too, every saved response numbered
    above this run's last one is removed, so a replay serves no response
    of an earlier, longer run; other files stay."""
    os.makedirs(directory, exist_ok=True)
    saved = 0  # the number of this run's last whole response

    def saving_fetch(url: str) -> bytes:
        nonlocal saved
        data = fetch(url)
        overwrite(os.path.join(directory, SAVED_RESPONSE_NAME.format(saved + 1)), data)
        saved += 1
        return data

    try:
        yield saving_fetch
    finally:
        for path in saved_responses(directory):
            if int(path.stem) > saved:
                os.remove(path)


def stage_harvest(config: Config, store: SqliteStore, fetch: Fetch) -> RunStatistics:
    """Harvest, resolve and look up every record, and replace the harvest
    tables with the results in one transaction.  It writes no BHT file;
    with ``[harvester] filespath`` set, it saves each response there, and
    removes the later responses that an earlier run saved."""
    try:
        dictionary = NameDictionary(store.load_name_records())
    except KeyError as exc:
        # Only a type code that -e did not write gets here.
        raise PrerequisiteError(
            f"the name dictionary table holds the unknown type code {exc.args[0]!r}; "
            "run --enamdict again"
        ) from None
    match_config = MatchConfig(config.lev_threshold, config.match_threshold)
    mode = "list" if config.use_list_records else (config.min_id, config.max_id)
    saving = (
        saving_fetcher(fetch, config.resolve(config.files_path))
        if config.files_path
        else nullcontext(fetch)
    )
    # The statistics count each identifier once, by its last copy.
    outcomes: dict[str, RecordOutcome] = {}

    log.info("harvesting %s (mode=%s)", config.endpoint or "<injected>", mode)
    # The prune runs inside the transaction, so a prune that fails rolls
    # the harvest back.
    with store.replace_harvest(), saving as fetch:
        for record, publication in harvest(
            config.endpoint,
            "junii2",
            mode,
            fetch=fetch,
            id_prefix=config.id_prefix,
        ):
            # A repeated identifier replaces its earlier copy's rows and keeps
            # its id, so its file name follows its first copy; a deleted or
            # unparsable last copy leaves no row.
            earlier = None
            if record.identifier in outcomes:
                earlier = store.remove_harvested(record.identifier)
            if record.deleted or publication is None:
                outcomes[record.identifier] = RecordOutcome(record.deleted)
                continue

            resolutions = [
                resolve_author(latin, kanji, dictionary)
                for latin, kanji in publication.creators
            ]
            names = latin_names(resolutions)
            dblp_key = None
            for title, _ in publication.titles:
                dblp_key = find_publication(title, names, store, match_config)
                if dblp_key:
                    break
            outcomes[record.identifier] = RecordOutcome(
                False,
                (publication.publication_type, publication.language),
                tuple(resolution.status for resolution in resolutions),
                bool(dblp_key),
            )
            store.add_harvested(publication, resolutions, dblp_key, earlier)
    return RunStatistics(outcomes.values())


def stage_export(config: Config, store: SqliteStore, stats: RunStatistics) -> None:
    """Write ``statistics.json``, then the BHT tree from the committed
    harvest rows.  A failure leaves only the files written from them."""
    root = config.resolve(config.bht_path)
    stats_path = os.path.join(config.resolve(config.log_path), "statistics.json")
    try:
        overwrite(stats_path, stats.to_json().encode("utf-8"))
        # The adjacency comes from the edge table, and its vocabulary is
        # built once for the run's match settings.
        coauthors = None
        if config.show_common_coauthors:
            match_config = MatchConfig(config.lev_threshold, config.match_threshold)
            coauthors = store.load_coauthors(match_config)
    except BaseException:
        # The files of the rows that this harvest replaced go too.
        remove_unclaimed(root, ())
        raise
    if coauthors is not None and config.match_threshold == 0:
        # Every corpus name then matches the input authors themselves,
        # and common_coauthors leaves those out.
        log.warning(
            "bhtexport.matchthreshold=0: the common-coauthor display will be empty"
        )
    export(store.harvested(), root, coauthors)


def stage_concatenate(config: Config) -> int:
    root = config.resolve(config.bht_path)
    count = concatenate(root)
    log.info("wrote %d all.bht files under %s", count, root)
    return count


def _check_prerequisites(flags, config: Config, store: SqliteStore) -> None:
    if flags.harvest:
        if not flags.parse_dblp and not store.has_corpus():
            raise PrerequisiteError(
                "harvest needs the corpus tables; run --parse-dblp first"
            )
        if not flags.enamdict and not store.has_names():
            raise PrerequisiteError(
                "harvest needs the name dictionary table; run --enamdict first"
            )
    if flags.concatenate_bht and not flags.harvest:
        if not os.path.isdir(config.resolve(config.bht_path)):
            raise PrerequisiteError(
                "concatenation needs BHT files; run --harvest first"
            )


def run(argv=None, *, fetch=None) -> int:
    """Execute the selected stages; returns the process exit status."""
    parser = _build_arg_parser()
    flags = parser.parse_args(argv)
    if flags.show_help:
        print(USAGE)
        return EXIT_OK
    if flags.run_all:
        flags.parse_dblp = flags.enamdict = flags.harvest = flags.concatenate_bht = True
    if not any(
        (flags.parse_dblp, flags.enamdict, flags.harvest, flags.concatenate_bht)
    ):
        print(USAGE, file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = parse_config(flags.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        with _logging_to_file(config), SqliteStore(config) as store:
            _check_prerequisites(flags, config, store)
            if flags.parse_dblp:
                stage_parse_dblp(config, store)
            if flags.enamdict:
                stage_enamdict(config, store)
            if flags.harvest:
                if fetch is None and not config.endpoint:
                    raise ConfigError(
                        "harvester.endpoint: required for a live harvest"
                    )
                stats = stage_harvest(config, store, fetch or http_fetch)
                print(stats.format_report())
                stage_export(config, store, stats)
            if flags.concatenate_bht:
                count = stage_concatenate(config)
                print(f"wrote {count} all.bht files")
    except PrerequisiteError as exc:
        print(f"prerequisite error: {exc}", file=sys.stderr)
        return EXIT_PREREQUISITE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TransportError, sqlite3.Error, DictionaryEncodingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OaiProtocolError as exc:
        print(f"oai error: {exc.code}: {exc.message}", file=sys.stderr)
        return EXIT_ERROR
    except ET.ParseError as exc:
        print(f"xml parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main() -> None:
    sys.exit(run())
