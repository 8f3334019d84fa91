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

from .bht import build_entry, claim_spf_path, concatenate, remove_unclaimed, render_spf
from .config import Config, ConfigError, parse_config
from .dblp import common_coauthors, find_publication, parse_corpus
from .enamdict import load_enamdict
from .matching import NameDictionary, resolve_author
from .oai import OaiProtocolError, TransportError, harvest, http_fetch
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


def _setup_logging(config: Config) -> logging.Handler:
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
    return handler


def stage_parse_dblp(config: Config, store: SqliteStore) -> None:
    path = config.resolve(config.dblp_xml_file)
    log.info("parsing corpus file %s", path)
    with open(path, "rb") as handle:
        corpus, edges = parse_corpus(handle)
    store.create_corpus_tables()
    # Edges first: -h reads the adjacency from them, and a failed edge
    # load then leaves no dblp rows, so has_corpus() is False.
    edge_count = store.add_coauthor_edges(edges)
    publications = store.add_corpus_publications(corpus.publications)
    store.create_title_index()
    log.info("stored %d publications and %d coauthor pairs", publications, edge_count)


def stage_enamdict(config: Config, store: SqliteStore) -> None:
    path = config.resolve(config.enamdict_file)
    log.info("converting name dictionary %s", path)
    records, warnings = load_enamdict(path, config.use_unclassified_names)
    for warning in warnings:
        log.warning(
            "dictionary line %d (%s): %s",
            warning.line_number,
            warning.kind,
            warning.raw,
        )
    store.create_names_table()
    count = store.add_name_records(records)
    log.info("stored %d name records (%d warnings)", count, len(warnings))


def stage_harvest(config: Config, store: SqliteStore, fetch) -> RunStatistics:
    dictionary = NameDictionary(store.load_name_records())
    # Title lookups query the store; a store written before the title
    # index existed gets it here.  The adjacency comes from the edge table.
    store.create_title_index()
    coauthors = store.load_coauthors() if config.show_common_coauthors else None
    match_config = MatchConfig(config.lev_threshold, config.match_threshold)
    if config.show_common_coauthors and config.match_threshold == 0:
        # Every corpus name then matches the input authors themselves,
        # and common_coauthors leaves those out.
        log.warning(
            "bhtexport.matchthreshold=0: the common-coauthor display will be empty"
        )
    store.create_harvest_tables()

    mode = "list" if config.use_list_records else (config.min_id, config.max_id)
    save_dir = config.resolve(config.files_path) if config.files_path else None
    bht_root = os.path.abspath(config.resolve(config.bht_path))
    taken: set[str] = set()  # relative BHT paths written in this run
    written: dict[str, str] = {}  # identifier -> relative BHT path
    # The statistics count each identifier once, by its last copy.
    outcomes: dict[str, RecordOutcome] = {}

    log.info("harvesting %s (mode=%s)", config.endpoint or "<injected>", mode)
    # No row is committed before flush(), so a failure keeps no part file.
    try:
        for record, publication in harvest(
            config.endpoint,
            "junii2",
            mode,
            fetch=fetch,
            id_prefix=config.id_prefix,
            save_dir=save_dir,
        ):
            # A repeated identifier replaces its earlier copy, rows and file
            # included; a deleted or unparsable last copy leaves nothing.
            earlier = written.pop(record.identifier, None)
            if earlier:
                store.remove_harvested(record.identifier)
                taken.discard(earlier)
            if record.deleted or publication is None:
                outcomes[record.identifier] = RecordOutcome(record.deleted)
                continue

            resolutions = [
                resolve_author(latin, kanji, dictionary)
                for latin, kanji in publication.creators
            ]
            latin_names = [
                r.latin.display() for r in resolutions if r.latin and r.latin.display()
            ]

            dblp_key = None
            for title, _ in publication.titles:
                dblp_key = find_publication(title, latin_names, store, match_config)
                if dblp_key:
                    break
            outcomes[record.identifier] = RecordOutcome(
                False,
                (publication.publication_type, publication.language),
                tuple(resolution.status for resolution in resolutions),
                bool(dblp_key),
            )

            shared: list[str] = []
            if coauthors is not None and latin_names:
                shared = common_coauthors(latin_names, coauthors, match_config)

            relative = claim_spf_path(publication, taken)
            target = os.path.join(bht_root, relative)
            if os.path.commonpath([bht_root, os.path.abspath(target)]) != bht_root:
                raise OSError(f"BHT path {target!r} leaves {bht_root!r}")
            store.add_harvested(publication, resolutions, dblp_key)
            entry = build_entry(publication, resolutions, shared, dblp_key)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            with open(target, "w", encoding="ascii", newline="") as handle:
                handle.write(render_spf(entry))
            written[publication.identifier] = relative
        store.flush()
    except BaseException:
        remove_unclaimed(bht_root, set())
        raise
    remove_unclaimed(bht_root, taken)
    return RunStatistics(outcomes.values())


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

    handler = _setup_logging(config)
    try:
        with SqliteStore(config) as store:
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
                stats_path = os.path.join(
                    config.resolve(config.log_path), "statistics.json"
                )
                with open(stats_path, "w", encoding="utf-8") as handle:
                    handle.write(stats.to_json())
            if flags.concatenate_bht:
                count = stage_concatenate(config)
                print(f"wrote {count} all.bht files")
    except PrerequisiteError as exc:
        print(f"prerequisite error: {exc}", file=sys.stderr)
        return EXIT_PREREQUISITE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TransportError, sqlite3.Error) as exc:
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
    finally:
        logging.getLogger("jpbib").removeHandler(handler)
        handler.close()
    return EXIT_OK


def main() -> None:
    sys.exit(run())
