#!/usr/bin/env python3
"""Pipeline benchmark: jpbib's four stages over a synthetic workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is coauthor-scan, harvest-bulk, ingest-scale, or ``all`` for the
three in turn.  The workload is generated from the seed, then the stages
-d -e -h -b (the work of ``jpbib --all``) run again and again, each time
in a fresh single-threaded process, until the next run would end after S
seconds.  Every run's outputs are checked against the planted facts.
With --trace 0 the end-to-end metrics are medians over the runs after
the first; with --trace 1 half the time goes to plain runs and one more
run is traced layer by layer.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.

Everything is written to a scratch directory inside the checkout that is
removed at exit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import check_run, output_digest
from reference import NOMINAL_S, reference_seconds
from tracing import layer_metrics, load

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = [ROOT / "src", ROOT / "benchmarks", HERE]
WORKLOADS = ("coauthor-scan", "harvest-bulk", "ingest-scale")
RUN_TIMEOUT_S = 150

CONFIG = """\
[db]
db=jpbib
[dblp]
xmlfile={inputs}/corpus.xml
[enamdict]
file={inputs}/enamdict.txt
[harvester]
filespath=./files-harvester
uselistrecords={list_records}
minid={min_id}
maxid={max_id}
[bhtexport]
path=./bht
showcommoncoauthors={show_common_coauthors}
[log]
path=./log
"""


def write_config(run_dir: Path, inputs: Path, workload) -> Path:
    """The config.ini of one run: inputs shared, outputs under ``run_dir``."""
    config = run_dir / "config.ini"
    config.write_text(
        CONFIG.format(
            inputs=inputs,
            list_records=str(workload.list_records).lower(),
            min_id=workload.min_id,
            max_id=workload.max_id,
            show_common_coauthors=str(workload.show_common_coauthors).lower(),
        )
    )
    return config


class Bench:
    """One generated workload and the runs made over it."""

    def __init__(self, name: str, seed: int, scratch: Path):
        import workloads

        self.scratch = scratch
        self.inputs = scratch / "inputs"
        self.run_dir = scratch / "run"
        self.workload = workloads.generate(name, seed, self.inputs)
        self.manifest = json.loads((self.inputs / "manifest.json").read_text())
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(str(path) for path in SOURCES),
            PYTHONHASHSEED="0",
            TMPDIR=str(scratch),
            SQLITE_TMPDIR=str(scratch),
        )
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.findings: list[str] = []
        self.digests: set[str] = set()

    def run_once(self, traced: bool = False) -> dict:
        """Run the four stages once in a fresh process; check the outputs."""
        self.count += 1
        run_dir = self.run_dir
        run_dir.mkdir(exist_ok=True)
        config = write_config(run_dir, self.inputs, self.workload)
        out = run_dir / "stages.json"
        out.unlink(missing_ok=True)
        since = time.time()
        command = [sys.executable, str(HERE / "stages.py"), str(config),
                   str(self.inputs / "responses"), str(out)]
        if traced:
            command += ["--trace", str(self.scratch / "spans")]
        before = reference_seconds()
        process = subprocess.run(
            command, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=RUN_TIMEOUT_S,
        )
        reference_s = before + reference_seconds()
        result = json.loads(out.read_text()) if out.is_file() else {"seconds": {}, "exit": {}}
        exit_ok = (
            process.returncode == 0
            and len(result["exit"]) == 4
            and not any(result["exit"].values())
        )
        if not exit_ok:
            self.findings.append(f"run {self.count} failed: {process.stderr.strip()[-2000:]}")
        failed, findings = check_run(run_dir, self.manifest, exit_ok, since)
        self.attempted += len(self.manifest["records"])
        self.failed += failed
        self.findings += [f"run {self.count}, {finding}" for finding in findings]
        if exit_ok:
            self.digests.add(output_digest(run_dir))
            stats = json.loads((run_dir / "log" / "statistics.json").read_text())
            seconds = result["seconds"]
            # Times at the machine speed the reference reads NOMINAL_S at.
            scale = NOMINAL_S / reference_s
            result["wall_total_s"] = sum(seconds.values())
            result["metrics"] = {
                "total_s": sum(seconds.values()) * scale,
                "setup_s": (seconds["parse_dblp"] + seconds["enamdict"]) * scale,
                "harvest_records_per_s": (
                    stats["records_with_metadata"] / (seconds["harvest"] * scale)
                ),
                "peak_rss_mib": result["peak_rss_mib"],
            }
            result["files_written"] = sum(
                1 for path in (run_dir / "bht").rglob("*.bht") if path.name != "all.bht"
            )
            result["db_bytes"] = (run_dir / "jpbib.sqlite3").stat().st_size
        return result

    def run_for(self, seconds: float) -> list[dict]:
        """Plain runs until the next one would end after ``seconds``.

        Every run rewrites the outputs of the one before, as a repeated
        ``jpbib --all`` does.  The first run creates the output tree; it is
        checked but left out of the returned runs, because creating a few
        thousand files costs anywhere from 0.03 to 1 ms each on a shared
        file system and would swamp the differences being measured.
        """
        started = time.perf_counter()
        runs = []
        while True:
            begun = time.perf_counter()
            runs.append(self.run_once())
            now = time.perf_counter()
            if len(runs) > 1 and now + (now - begun) > started + seconds:
                return runs[1:]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(self.digests) == 1


END_TO_END = (
    ("total_s", "s"), ("setup_s", "s"), ("harvest_records_per_s", "1/s"), ("peak_rss_mib", "MiB"),
)


def _medians(runs: list[dict]) -> dict[str, float]:
    measured = [run for run in runs if "metrics" in run]
    if not measured:
        return {}
    medians = {
        name: statistics.median(run["metrics"][name] for run in measured)
        for name, _ in END_TO_END
    }
    medians["wall_total_s"] = statistics.median(run["wall_total_s"] for run in measured)
    return medians


def measure(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    bench = Bench(name, seed, scratch)
    medians = _medians(bench.run_for(seconds / 2 if trace else seconds))
    metrics = {}
    if not trace:
        metrics = {metric: {"value": medians[metric], "unit": unit}
                   for metric, unit in END_TO_END if metric in medians}
    else:
        traced = bench.run_once(traced=True)
        if "metrics" in traced and medians:
            layers = layer_metrics(*load(scratch / "spans"))
            layers["bht.files_written"] = (traced["files_written"], "count")
            layers["store.db_bytes"] = (traced["db_bytes"], "bytes")
            layers["similarity.levenshtein_pairs_per_s"] = (traced["kernel_pairs_per_s"], "1/s")
            layers["similarity.compiled"] = (traced["compiled"], "bool")
            layers["trace.overhead_ratio"] = (
                traced["metrics"]["total_s"] / medians["total_s"], "ratio"
            )
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
    summary = " ".join(f"{k}={v:.6g}" for k, v in medians.items())
    failed_ratio = bench.failed / bench.attempted
    digest = next(iter(bench.digests)) if len(bench.digests) == 1 else "inconsistent"
    print(f"{name} seed={seed} runs={bench.count}: {summary} "
          f"failed_ratio={failed_ratio:.6g} output_digest={digest}")
    for finding in bench.findings[:20]:
        print(f"finding: {finding}", file=sys.stderr)
    return {
        "correct": bench.correct and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "jpbib" / "pipeline.py").is_file():
        print(f"error: no jpbib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(path) for path in SOURCES]
    # Every process here is single-threaded and they never run at once;
    # one CPU for all of them spares the runs migrations, and the
    # reference sees the CPU the stages run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            results.append(measure(name, args.seed, args.seconds, bool(args.trace), scratch))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    if args.workload != "all":
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
