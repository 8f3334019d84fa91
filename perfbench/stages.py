"""One pipeline run in a fresh process: the stages -d, -e, -h and -b.

Usage: python stages.py CONFIG RESPONSES OUT [--trace SPANS]

Runs the four stages one after another through ``jpbib.pipeline.run``,
the same work as ``jpbib --all``, with the harvest served from
pre-rendered responses.  Writes to OUT (JSON) each stage's wall time and
exit status and the process's peak resident set.  With ``--trace`` the
layer wrappers are installed for the run and the spans are written to
SPANS.json/SPANS.bin; the edit-distance kernel is then also timed on
its own, after the wrappers are removed.
"""

import argparse
import contextlib
import io
import json
import resource
import time

from jpbib.oai import replay_fetcher
from jpbib.pipeline import run

STAGES = (("parse_dblp", "-d"), ("enamdict", "-e"), ("harvest", "-h"), ("concat", "-b"))
KERNEL_PAIRS = 20_000


def kernel_pairs_per_s() -> float:
    """Throughput of the active edit-distance kernel on fixed name pairs."""
    from bench_levenshtein import bench, make_pairs
    from jpbib.similarity import levenshtein

    return KERNEL_PAIRS / bench(levenshtein, make_pairs(KERNEL_PAIRS), repeat=3)


def peak_rss_mib() -> float:
    """Peak resident set of this process's own address space.

    ``ru_maxrss`` also counts the parent's resident set at the fork that
    started this process, so the kernel's high-water mark of the current
    address space is read instead where it is available.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_stages(config: str, responses: str, tracer=None) -> dict:
    """Each stage's wall time and exit status; stops at the first failure."""
    fetch = replay_fetcher(responses)
    if tracer:
        fetch = tracer.wrap("oai.fetch", fetch)
        tracer.install()
    result = {"seconds": {}, "exit": {}}
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for stage, flag in STAGES:
                started = time.perf_counter()
                status = run(["--config", config, flag], fetch=fetch)
                result["seconds"][stage] = time.perf_counter() - started
                result["exit"][stage] = status
                if status:
                    break
    finally:
        if tracer:
            tracer.restore()
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("responses")
    parser.add_argument("out")
    parser.add_argument("--trace")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    result = run_stages(args.config, args.responses, tracer)
    result["peak_rss_mib"] = peak_rss_mib()
    if tracer:
        from jpbib.similarity import USING_COMPILED

        tracer.dump(args.trace)
        result["kernel_pairs_per_s"] = kernel_pairs_per_s()
        result["compiled"] = int(USING_COMPILED)
    with open(args.out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
