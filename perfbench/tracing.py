"""Spans around the calls into each layer, recorded from outside jpbib.

``Tracer.install()`` replaces the module attributes and class methods the
program looks up at call time with wrappers that record one span per
call: its name, start, end and the span that was open when it began.
A function imported into several modules is replaced under every name
that refers to it.  Wrappers pass any arguments through, so they survive
signature changes; a target that no longer exists is skipped and its
metrics are left out.  ``restore()`` puts every original back.

Spans are kept in flat arrays in memory and written out once, when the
run ends; ``layer_metrics`` turns them into the per-layer numbers.
"""

import functools
import importlib
import inspect
import json
import math
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (span name, module, attribute path); methods are patched on their class.
TARGETS = [
    ("pipeline.parse_dblp", "jpbib.pipeline", "stage_parse_dblp"),
    ("pipeline.enamdict", "jpbib.pipeline", "stage_enamdict"),
    ("pipeline.harvest", "jpbib.pipeline", "stage_harvest"),
    ("pipeline.concat", "jpbib.pipeline", "stage_concatenate"),
    ("oai.harvest", "jpbib.oai", "harvest"),
    ("oai.parse_junii2", "jpbib.oai", "parse_junii2"),
    ("enamdict.load", "jpbib.enamdict", "load_enamdict"),
    ("dblp.parse_corpus", "jpbib.dblp", "parse_corpus"),
    ("dblp.find_publication", "jpbib.dblp", "find_publication"),
    ("dblp.common_coauthors", "jpbib.dblp", "common_coauthors"),
    ("similarity.names_match", "jpbib.similarity", "names_match"),
    ("similarity.levenshtein", "jpbib.similarity", "levenshtein"),
    ("matching.dictionary_build", "jpbib.matching", "NameDictionary.__init__"),
    ("matching.resolve_author", "jpbib.matching", "resolve_author"),
    ("matching.latin_lookup_variants", "jpbib.matching", "latin_lookup_variants"),
    ("transcription.normalize_latin", "jpbib.transcription", "normalize_latin"),
    ("transcription.to_hepburn", "jpbib.transcription", "to_hepburn"),
    ("transcription.expand_double_vowels", "jpbib.transcription", "expand_double_vowels"),
    ("store.add_corpus_publications", "jpbib.store", "SqliteStore.add_corpus_publications"),
    ("store.add_coauthor_edges", "jpbib.store", "SqliteStore.add_coauthor_edges"),
    ("store.add_name_records", "jpbib.store", "SqliteStore.add_name_records"),
    ("store.load_corpus", "jpbib.store", "SqliteStore.load_corpus"),
    ("store.load_name_records", "jpbib.store", "SqliteStore.load_name_records"),
    ("store.add_harvested", "jpbib.store", "SqliteStore.add_harvested"),
    ("store.flush", "jpbib.store", "SqliteStore.flush"),
    ("bht.build_entry", "jpbib.bht", "build_entry"),
    ("bht.render_spf", "jpbib.bht", "render_spf"),
    ("bht.concatenate", "jpbib.bht", "concatenate"),
]


# Counters read off return values or yielded items; each maps the value
# to {counter: increment}.  A value of another shape drops the counter.
def _corpus_counts(result):
    corpus, edges = result[0], result[1]
    return {"dblp.publications": len(corpus.publications), "dblp.edges": len(edges)}


def _harvest_item_counts(item):
    record, publication = item
    failed = publication is None and not record.deleted
    return {"oai.records": 1, "oai.parse_errors": int(failed)}


RESULT_COUNTERS = {
    "oai.fetch": lambda data: {"oai.bytes_fetched": len(data)},
    "oai.harvest": _harvest_item_counts,
    "enamdict.load": lambda r: {"enamdict.records": len(r[0]), "enamdict.warnings": len(r[1])},
    "dblp.parse_corpus": _corpus_counts,
    "dblp.find_publication": lambda key: {"dblp.find_publication_hits": int(bool(key))},
    "similarity.names_match": lambda hit: {"similarity.names_match_hits": int(bool(hit))},
    "bht.render_spf": lambda text: {"bht.bytes_rendered": len(text)},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.broken: set[str] = set()
        self._open = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _begin(self, name_id: int) -> tuple[int, int]:
        index = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._open)
        self.end.append(0.0)
        self.start.append(perf_counter())
        outer, self._open = self._open, index
        return index, outer

    def _finish(self, index: int, outer: int) -> None:
        self.end[index] = perf_counter()
        self._open = outer

    def _count(self, name: str, value) -> None:
        try:
            increments = RESULT_COUNTERS[name](value)
        except (TypeError, AttributeError, IndexError, KeyError, ValueError):
            self.broken.add(name)
            return
        for counter, amount in increments.items():
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name: str, function):
        """``function`` with one span per call (per item for generators)."""
        name_id = len(self.names)
        self.names.append(name)
        counted = name in RESULT_COUNTERS

        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def traced_generator(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    index, outer = self._begin(name_id)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self._finish(index, outer)
                    if counted:
                        self._count(name, item)
                    yield item

            return traced_generator

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index, outer = self._begin(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                self._finish(index, outer)
            if counted:
                self._count(name, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every target that exists; skip the ones that do not."""
        for name, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *classes, attribute = path.split(".")
                for class_name in classes:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
            except (ImportError, AttributeError, KeyError):
                continue
            traced = self.wrap(name, original)
            if classes:
                self._patch(owner, attribute, traced)
            else:
                # Every module-level name bound to the function, so that
                # ``from x import f`` copies are wrapped too.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("jpbib"):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output -----------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans (binary arrays) and a JSON header next to them."""
        header = {
            "names": self.names,
            "counters": self.counters,
            "broken": sorted(self.broken),
            "spans": len(self.start),
        }
        Path(f"{path}.json").write_text(json.dumps(header))
        with open(f"{path}.bin", "wb") as handle:
            for column in (self.span_name, self.parent, self.start, self.end):
                column.tofile(handle)


def load(path: Path) -> tuple[dict, list[array]]:
    header = json.loads(Path(f"{path}.json").read_text())
    count = header["spans"]
    columns = [array("i"), array("i"), array("d"), array("d")]
    with open(f"{path}.bin", "rb") as handle:
        for column in columns:
            column.fromfile(handle, count)
    return header, columns


def _percentile(sorted_values: list[float], percent: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(percent / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def _tail_percent(count: int) -> float:
    """The highest percentile that still has ten samples beyond it."""
    for percent in (99.9, 99.0, 90.0, 75.0):
        if count * (100 - percent) / 100 >= 10:
            return percent
    return 50.0


def layer_metrics(header: dict, columns: list[array]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; absent targets give none."""
    span_name, parent, start, end = columns
    names = header["names"]
    durations: dict[str, list[float]] = {name: [] for name in names}
    child_time = [0.0] * len(start)
    for index in range(len(start)):
        elapsed = end[index] - start[index]
        durations[names[span_name[index]]].append(elapsed)
        if parent[index] >= 0:
            child_time[parent[index]] += elapsed
    self_time: dict[str, float] = {name: 0.0 for name in names}
    for index in range(len(start)):
        self_time[names[span_name[index]]] += end[index] - start[index] - child_time[index]

    present = set(names)
    counters = header["counters"]
    broken = set(header["broken"])
    metrics: dict[str, tuple[float, str]] = {}

    def put(metric: str, unit: str, compute, *needs: str) -> None:
        if all(need in present for need in needs):
            metrics[metric] = (compute(), unit)

    def put_count(metric: str, unit: str, compute, span: str) -> None:
        # Counters read off return values vanish when their shape changed.
        if span not in broken:
            put(metric, unit, compute, span)

    def busy(name: str) -> float:
        return sum(durations[name])

    def calls(name: str) -> int:
        return len(durations[name])

    def counter(name: str) -> int:
        return counters.get(name, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    for stage in ("parse_dblp", "enamdict", "harvest", "concat"):
        put(f"pipeline.{stage}_s", "s", lambda s=stage: busy(f"pipeline.{s}"), f"pipeline.{stage}")
    put("pipeline.harvest_self_s", "s", lambda: self_time["pipeline.harvest"], "pipeline.harvest")

    put("oai.requests", "count", lambda: calls("oai.fetch"), "oai.fetch")
    put_count("oai.bytes_fetched", "bytes", lambda: counter("oai.bytes_fetched"), "oai.fetch")
    put("oai.fetch_s", "s", lambda: busy("oai.fetch"), "oai.fetch")
    put("oai.parse_s", "s", lambda: busy("oai.harvest") - busy("oai.fetch"), "oai.harvest", "oai.fetch")
    put_count("oai.records", "count", lambda: counter("oai.records"), "oai.harvest")
    put_count("oai.parse_errors", "count", lambda: counter("oai.parse_errors"), "oai.harvest")

    put("enamdict.load_s", "s", lambda: busy("enamdict.load"), "enamdict.load")
    put_count("enamdict.records", "count", lambda: counter("enamdict.records"), "enamdict.load")
    put_count("enamdict.warnings", "count", lambda: counter("enamdict.warnings"), "enamdict.load")

    put("dblp.parse_corpus_s", "s", lambda: busy("dblp.parse_corpus"), "dblp.parse_corpus")
    put_count("dblp.publications", "count", lambda: counter("dblp.publications"), "dblp.parse_corpus")
    put_count("dblp.edges", "count", lambda: counter("dblp.edges"), "dblp.parse_corpus")
    find = "dblp.find_publication"
    put(f"{find}_s", "s", lambda: busy(find), find)
    put(f"{find}_calls", "count", lambda: calls(find), find)
    put_count(f"{find}_hit_ratio", "ratio", lambda: ratio(counter(f"{find}_hits"), calls(find)), find)
    _distribution(put, durations, "dblp.common_coauthors", "ms", 1e3)

    match = "similarity.names_match"
    put(f"{match}_calls", "count", lambda: calls(match), match)
    put(f"{match}_s", "s", lambda: busy(match), match)
    put_count(f"{match}_hit_ratio", "ratio", lambda: ratio(counter(f"{match}_hits"), calls(match)), match)
    put("similarity.levenshtein_calls", "count", lambda: calls("similarity.levenshtein"),
        "similarity.levenshtein")

    put("matching.dictionary_build_s", "s", lambda: busy("matching.dictionary_build"),
        "matching.dictionary_build")
    _distribution(put, durations, "matching.resolve_author", "us", 1e6)
    put("matching.lookup_variants_per_author", "ratio",
        lambda: ratio(calls("matching.latin_lookup_variants"), calls("matching.resolve_author")),
        "matching.latin_lookup_variants", "matching.resolve_author")

    put("transcription.normalize_latin_calls", "count",
        lambda: calls("transcription.normalize_latin"), "transcription.normalize_latin")
    put("transcription.to_hepburn_calls", "count",
        lambda: calls("transcription.to_hepburn"), "transcription.to_hepburn")
    put("transcription.expand_double_vowels_s", "s",
        lambda: busy("transcription.expand_double_vowels"), "transcription.expand_double_vowels")

    for method in ("add_corpus_publications", "add_coauthor_edges", "add_name_records",
                   "load_corpus", "load_name_records", "add_harvested", "flush"):
        put(f"store.{method}_s", "s", lambda m=method: busy(f"store.{m}"), f"store.{method}")

    for function in ("build_entry", "render_spf", "concatenate"):
        put(f"bht.{function}_s", "s", lambda f=function: busy(f"bht.{f}"), f"bht.{function}")
    put_count("bht.bytes_rendered", "bytes", lambda: counter("bht.bytes_rendered"), "bht.render_spf")
    return metrics


def _distribution(put, durations, name: str, unit: str, scale: float) -> None:
    """Busy time, calls, median and tail latency of one layer's calls."""
    values = sorted(durations.get(name, []))
    tail = _tail_percent(len(values))
    put(f"{name}_s", "s", lambda: sum(values), name)
    put(f"{name}_calls", "count", lambda: len(values), name)
    put(f"{name}_p50_{unit}", unit, lambda: _percentile(values, 50) * scale, name)
    put(f"{name}_tail_{unit}", unit, lambda: _percentile(values, tail) * scale, name)
    put(f"{name}_tail_pct", "percentile", lambda: tail if values else 0.0, name)
