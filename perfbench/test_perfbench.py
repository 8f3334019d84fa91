"""Tests of the benchmark itself: generator, checker and layer wrappers.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import sqlite3
import sys
import time
from contextlib import closing
from pathlib import Path

import pytest

import tracing
from check import check_run, output_digest
from run import write_config
from stages import run_stages
from workloads import generate

WORKLOADS = ("coauthor-scan", "harvest-bulk", "ingest-scale")


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, name):
    generate(name, 7, tmp_path / "a")
    generate(name, 7, tmp_path / "b")
    generate(name, 8, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert {"corpus.xml", "enamdict.txt", "manifest.json"} <= set(first)
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A completed run of coauthor-scan without the (slow) coauthor scan."""
    root = tmp_path_factory.mktemp("bench")
    workload = generate("coauthor-scan", 3, root / "inputs")
    workload.show_common_coauthors = False
    run_dir = root / "run"
    run_dir.mkdir()
    config = write_config(run_dir, root / "inputs", workload)
    result = run_stages(str(config), str(root / "inputs" / "responses"))
    assert not any(result["exit"].values())
    manifest = json.loads((root / "inputs" / "manifest.json").read_text())
    for record in manifest["records"]:
        record["coauthors"] = []
    return run_dir, manifest


def test_checker_accepts_correct_outputs(finished_run):
    run_dir, manifest = finished_run
    assert check_run(run_dir, manifest, exit_ok=True) == (0, [])
    assert check_run(run_dir, manifest, exit_ok=False)[0] == len(manifest["records"])
    assert output_digest(run_dir) == output_digest(run_dir)


def test_checker_flags_outputs_of_an_earlier_run(finished_run):
    run_dir, manifest = finished_run
    failed, findings = check_run(run_dir, manifest, exit_ok=True, since=time.time() + 60)
    assert failed == len(manifest["records"])
    assert "not rewritten" in findings[0]


def _duplicate(manifest) -> dict:
    return next(r for r in manifest["records"] if r.get("dblp_key"))


def test_checker_flags_corrupted_bht_file(finished_run):
    run_dir, manifest = finished_run
    path = run_dir / "bht" / manifest["records"][0]["path"]
    original = path.read_bytes()
    digest = output_digest(run_dir)
    try:
        path.write_bytes(original.replace(b"<ul>", "<ul>é".encode("utf-8"), 1))
        failed, findings = check_run(run_dir, manifest, exit_ok=True)
        assert failed == 1 and "ASCII" in findings[0]
        assert output_digest(run_dir) != digest
        path.unlink()
        failed, findings = check_run(run_dir, manifest, exit_ok=True)
        assert failed == 1 and "missing" in findings[0]
    finally:
        path.write_bytes(original)


def test_checker_flags_wrong_dblp_key(finished_run):
    run_dir, manifest = finished_run
    record = _duplicate(manifest)
    path = run_dir / "bht" / record["path"]
    original = path.read_bytes()
    try:
        path.write_bytes(original.replace(record["dblp_key"].encode(), b"conf/wrong/1"))
        failed, findings = check_run(run_dir, manifest, exit_ok=True)
        assert failed == 1 and "dblp_key" in findings[0]
    finally:
        path.write_bytes(original)
    with closing(sqlite3.connect(run_dir / "jpbib.sqlite3")) as connection:
        connection.execute(
            "UPDATE oai_publications SET dblp_key=NULL WHERE identifier=?",
            (record["identifier"],),
        )
        connection.commit()
    failed, findings = check_run(run_dir, manifest, exit_ok=True)
    assert failed == 1 and "dblp_key" in findings[0]


def _jpbib_bindings() -> dict[tuple[str, str], object]:
    bindings = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("jpbib"):
            for key, value in vars(module).items():
                bindings[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("jpbib"):
                    for attribute, member in vars(value).items():
                        bindings[(f"{name}.{key}", attribute)] = member
    return bindings


def test_traced_run_restores_every_binding(tmp_path, monkeypatch):
    monkeypatch.setattr(
        tracing,
        "TARGETS",
        tracing.TARGETS + [("gone.layer", "jpbib.dblp", "function_removed_later")],
    )
    workload = generate("harvest-bulk", 5, tmp_path / "inputs")
    (tmp_path / "run").mkdir()
    config = write_config(tmp_path / "run", tmp_path / "inputs", workload)
    import jpbib.pipeline  # noqa: F401  (load every module before the snapshot)

    before = _jpbib_bindings()
    tracer = tracing.Tracer()
    result = run_stages(str(config), str(tmp_path / "inputs" / "responses"), tracer)
    after = _jpbib_bindings()
    assert not any(result["exit"].values())
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    tracer.dump(tmp_path / "spans")
    metrics = tracing.layer_metrics(*tracing.load(tmp_path / "spans"))
    assert "gone.layer" not in tracer.names
    assert metrics["dblp.common_coauthors_calls"] == (0, "count")
    manifest = json.loads((tmp_path / "inputs" / "manifest.json").read_text())
    assert metrics["oai.records"][0] == len(manifest["records"])
    assert metrics["matching.resolve_author_calls"][0] > 0
    harvest = metrics["pipeline.harvest_s"][0]
    assert 0 < metrics["pipeline.harvest_self_s"][0] < harvest


def test_self_time_excludes_children(tmp_path):
    tracer = tracing.Tracer()
    inner = tracer.wrap("similarity.names_match", lambda: sum(range(20_000)) > 0)
    outer = tracer.wrap("pipeline.harvest", lambda: inner() and inner())
    for _ in range(20):
        outer()
    tracer.dump(tmp_path / "spans")
    metrics = tracing.layer_metrics(*tracing.load(tmp_path / "spans"))
    assert metrics["similarity.names_match_calls"] == (40, "count")
    assert metrics["similarity.names_match_hit_ratio"] == (1.0, "ratio")
    total = metrics["pipeline.harvest_s"][0]
    children = metrics["similarity.names_match_s"][0]
    assert metrics["pipeline.harvest_self_s"][0] == pytest.approx(total - children)
    assert 0 < children < total
