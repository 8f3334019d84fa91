"""A fixed amount of work that measures how fast the machine runs right now.

On a shared machine the same pipeline run takes anywhere from 0.7x to
1.5x its usual time, and the slow and fast spells last minutes, so
medians over the runs of one invocation cannot remove them.  Every run
therefore also times this reference, right before and right after its
stages, and ``run.py`` scales the run's times by ``NOMINAL_S`` over the
reference's time.  The reference does the kinds of work the pipeline
does (interpreted string code, XML parsing, SQLite inserts and queries)
and uses nothing from jpbib or outside this directory, so no change to
the program moves it.
"""

import gc
import random
import sqlite3
import time
import xml.etree.ElementTree as ET

# What reference_seconds() read, before plus after, on the 2-CPU machine
# the bounds were set on; it only fixes the scale of the scaled times.
NOMINAL_S = 0.26

_rng = random.Random(0)
_WORDS = ["".join(_rng.choice("aiueokstnhmr") for _ in range(_rng.randrange(4, 10)))
          for _ in range(600)]
_PAIRS = [(_rng.choice(_WORDS), _rng.choice(_WORDS)) for _ in range(3000)]
_XML = (
    "<dblp>"
    + "".join(
        f'<article key="k/{i}"><author>{_WORDS[i % 600]} {_WORDS[i % 599]}</author>'
        f"<title>{_WORDS[i % 597]} &#252; {i}</title></article>"
        for i in range(10000)
    )
    + "</dblp>"
).encode()


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, by the textbook dynamic programme."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def reference_seconds() -> float:
    """Wall time of one pass over the fixed work (about 0.13 s).

    The cyclic garbage collector is paused meanwhile, so that the time does
    not depend on how many objects the calling process holds.
    """
    gc.disable()
    connection = sqlite3.connect(":memory:")
    try:
        started = time.perf_counter()
        for a, b in _PAIRS:
            edit_distance(a, b)
        rows = [
            (element.get("key"), element.findtext("author"), element.findtext("title"))
            for element in ET.fromstring(_XML)
        ]
        connection.execute("CREATE TABLE t (key TEXT PRIMARY KEY, author TEXT, title TEXT)")
        connection.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
        connection.commit()
        for _ in connection.execute("SELECT * FROM t ORDER BY author"):
            pass
        return time.perf_counter() - started
    finally:
        connection.close()
        gc.enable()
