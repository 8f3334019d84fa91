"""Output checker: planted facts, failed records and the output digest.

A record counts as failed when the run exited non-zero, when its BHT file
is missing, was not written by the run checked (the runs of one
invocation share their output directory) or is not pure ASCII, or when a
planted fact is wrong: the ``dblp_key`` (in the BHT file and in the
harvest table), the status of an author whose status is unambiguous, or
a planted common coauthor.  A malformed record fails when a BHT file
appears for it; deleted and malformed records also fail when
``statistics.json`` miscounts them.
"""

import hashlib
import html
import json
import os
import re
import sqlite3
from contextlib import closing
from pathlib import Path

HARVEST_TABLES = (
    "oai_publications", "oai_authors", "oai_titles", "oai_contributors", "oai_descriptions",
)

_STATUS_RE = re.compile(r'<status name="[^"]*">([^<]*)</status>')
_KEY_RE = re.compile(r"<dblpkey>([^<]*)</dblpkey>")
_COAUTHORS_RE = re.compile(r"<commoncoauthors>([^<]*)</commoncoauthors>")


def _dblp_keys(db_path: Path) -> dict[str, str | None]:
    with closing(sqlite3.connect(db_path)) as connection:
        return dict(connection.execute("SELECT identifier, dblp_key FROM oai_publications"))


def _check_file(path: Path, planted: dict, stored_key, since: float) -> str | None:
    """Why one record's outputs are wrong, or None when they are right."""
    if not path.is_file():
        return "BHT file missing"
    if path.stat().st_mtime < since:
        return "BHT file not rewritten by this run"
    data = path.read_bytes()
    if not data.isascii():
        return "BHT file is not pure ASCII"
    text = data.decode("ascii")
    key = _KEY_RE.search(text)
    found_key = html.unescape(key.group(1)) if key else None
    if found_key != planted["dblp_key"] or stored_key != planted["dblp_key"]:
        return f"dblp_key {found_key!r}/{stored_key!r}, planted {planted['dblp_key']!r}"
    statuses = [html.unescape(s) for s in _STATUS_RE.findall(text)]
    if len(statuses) != len(planted["statuses"]):
        return f"{len(statuses)} author statuses, planted {len(planted['statuses'])}"
    for position, (found, expected) in enumerate(zip(statuses, planted["statuses"])):
        if expected is not None and found != expected:
            return f"author {position} status {found!r}, planted {expected!r}"
    match = _COAUTHORS_RE.search(text)
    listed = set(html.unescape(match.group(1)).split(", ")) if match else set()
    missing = [name for name in planted["coauthors"] if name not in listed]
    if missing:
        return f"planted common coauthors missing: {missing}"
    return None


def check_run(
    run_dir: Path, manifest: dict, exit_ok: bool, since: float = 0.0
) -> tuple[int, list[str]]:
    """(failed record count, findings) for the run in ``run_dir`` begun at ``since``."""
    records = manifest["records"]
    if not exit_ok:
        return len(records), ["the run exited non-zero"]
    bht = run_dir / "bht"
    stats_path = run_dir / "log" / "statistics.json"
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    deleted = sum(1 for r in records if r.get("deleted"))
    malformed = sum(1 for r in records if r.get("malformed"))
    counts_ok = (
        stats_path.stat().st_mtime >= since
        and stats["deleted_records"] == deleted
        and stats["parse_errors"] == malformed
    )
    keys = _dblp_keys(run_dir / "jpbib.sqlite3")
    failed, findings = 0, []
    for planted in records:
        if planted.get("deleted") or planted["malformed"]:
            problem = None if counts_ok else "deleted/unparsable counts differ from the plan"
            if planted.get("malformed") and (bht / planted["path"]).exists():
                problem = "BHT file written for a record without titles"
        else:
            problem = _check_file(
                bht / planted["path"], planted, keys.get(planted["identifier"]), since
            )
        if problem:
            failed += 1
            findings.append(f"record {planted['number']}: {problem}")
    return failed, findings


def output_digest(run_dir: Path) -> str:
    """sha256 over the BHT tree, statistics.json and the harvest-table rows."""
    digest = hashlib.sha256()
    bht = run_dir / "bht"
    for directory, _, files in sorted(os.walk(bht)):
        for name in sorted(files):
            path = Path(directory) / name
            digest.update(str(path.relative_to(bht)).encode() + b"\0")
            digest.update(path.read_bytes())
    digest.update((run_dir / "log" / "statistics.json").read_bytes())
    with closing(sqlite3.connect(run_dir / "jpbib.sqlite3")) as connection:
        for table in HARVEST_TABLES:
            for row in connection.execute(f"SELECT * FROM {table} ORDER BY id"):
                digest.update(repr(row).encode())
    return digest.hexdigest()
