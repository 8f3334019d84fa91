"""Checks on the source tree itself."""

import importlib
import importlib.util
import json
import pkgutil
import shutil
import subprocess
from pathlib import Path

import pytest

import jpbib

ROOT = Path(__file__).resolve().parents[1]


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    result = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        pytest.skip(f"git ls-files failed: {result.stderr.strip()}")
    assert result.stdout == ""


def test_all_exports_exist():
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(jpbib.__path__, "jpbib.")
    ]
    checked = [module for module in modules if hasattr(module, "__all__")]
    assert {"jpbib.oai", "jpbib.oai_mock", "jpbib.similarity"} <= {
        module.__name__ for module in checked
    }
    for module in checked:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def _module_at(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The per-layer metrics perfbench/run.py adds itself, outside the spans.
RUN_METRICS = {
    "bht.files_written",
    "store.db_bytes",
    "similarity.levenshtein_pairs_per_s",
    "similarity.compiled",
    "trace.overhead_ratio",
}


def test_traced_run_reports_every_declared_layer_metric(tmp_path, capsys):
    # The tracer silently drops the metrics of a target it cannot resolve
    # and a counter whose return shape changed; this catches both.
    from jpbib.pipeline import run
    from jpbib.similarity import USING_COMPILED, levenshtein
    from mockrepo import build_provider

    tracing = _module_at(ROOT / "perfbench" / "tracing.py")
    kernel = _module_at(ROOT / "benchmarks" / "bench_levenshtein.py")
    assert kernel.bench(levenshtein, kernel.make_pairs(10), repeat=1) >= 0
    assert USING_COMPILED in (False, True)

    fixtures = ROOT / "tests" / "fixtures"
    config = tmp_path / "config.ini"
    config.write_text(
        f"[enamdict]\nfile={fixtures / 'names_fixture.txt'}\n"
        f"[dblp]\nxmlfile={fixtures / 'corpus_fixture.xml'}\n"
        "[harvester]\nidprefix=oai:mock:\n"
        "[bhtexport]\nshowcommoncoauthors=true\n"
    )
    tracer = tracing.Tracer()
    fetch = tracer.wrap("oai.fetch", build_provider().fetch)
    tracer.install()
    try:
        assert run(["--config", str(config), "--all"], fetch=fetch) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    tracer.dump(tmp_path / "spans")
    metrics = tracing.layer_metrics(*tracing.load(tmp_path / "spans"))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {entry["name"] for entry in declared} - RUN_METRICS
    assert metrics["dblp.common_coauthors_calls"][0] > 0


# The seed-1 output digests (BHT tree, statistics.json, harvest tables) of
# perfbench's workloads; CI's traced benchmark run checks the same file.
PINNED_DIGESTS = json.loads((ROOT / "tests" / "pinned_digests.json").read_text())
# Seed-1 harvest-bulk with the coauthor display forced on: 11 of its BHT
# files list common coauthors.  It is kept out of pinned_digests.json,
# whose every key names a workload.
HARVEST_BULK_DISPLAY_DIGEST = (
    "a36125048f949511f018cda6d1711e4e67961cb43b490b48aa743af6c995514f"
)


def seed_1_output_digest(workload, tmp_path, monkeypatch, capsys, **settings):
    """Generate a perfbench workload at seed 1, with ``settings`` replacing
    fields of its harvest configuration, run ``--all`` over it and return
    the digest of the outputs."""
    from dataclasses import replace

    from jpbib.oai import replay_fetcher
    from jpbib.pipeline import run

    # The perfbench modules import their siblings and the kernel benchmark.
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = _module_at(ROOT / "perfbench" / "workloads.py")
    check = _module_at(ROOT / "perfbench" / "check.py")
    bench = _module_at(ROOT / "perfbench" / "run.py")

    inputs, run_dir = tmp_path / "inputs", tmp_path / "run"
    generated = replace(workloads.generate(workload, 1, inputs), **settings)
    run_dir.mkdir()
    config = bench.write_config(run_dir, inputs, generated)
    fetch = replay_fetcher(str(inputs / "responses"))
    assert run(["--config", str(config), "--all"], fetch=fetch) == 0
    capsys.readouterr()
    return check.output_digest(run_dir)


@pytest.mark.parametrize("workload", sorted(PINNED_DIGESTS))
def test_seed_1_workload_gives_its_pinned_output_digest(
    workload, tmp_path, monkeypatch, capsys
):
    digest = seed_1_output_digest(workload, tmp_path, monkeypatch, capsys)
    assert digest == PINNED_DIGESTS[workload]


def test_seed_1_harvest_bulk_with_the_coauthor_display_gives_its_digest(
    tmp_path, monkeypatch, capsys
):
    digest = seed_1_output_digest(
        "harvest-bulk", tmp_path, monkeypatch, capsys, show_common_coauthors=True
    )
    assert digest == HARVEST_BULK_DISPLAY_DIGEST
