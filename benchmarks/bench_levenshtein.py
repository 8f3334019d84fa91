#!/usr/bin/env python3
"""Benchmark the edit-distance kernel, exact and at budgets 2 and 3,
names_match, and the coauthor vocabulary's ``near`` over the tokens of
the pairs.

The kernel sits in the inner loop of fuzzy coauthor matching: ``near``
checks every token that shares a segment with a harvested author's token,
and ``names_match`` then compares the author with each name of the tokens
found, so a corpus of realistic size multiplies any per-call cost.

Usage: python benchmarks/bench_levenshtein.py [--pairs N] [--repeat N]
"""

import argparse
import random
import time

from jpbib.dblp import TokenVocabulary
from jpbib.similarity import MatchConfig, levenshtein, names_match

SYLLABLES = [
    "ka", "ki", "ku", "ke", "ko", "sa", "shi", "su", "se", "so",
    "ta", "chi", "tsu", "te", "to", "na", "ni", "nu", "ne", "no",
    "ha", "hi", "fu", "he", "ho", "ma", "mi", "mu", "me", "mo",
    "ya", "yu", "yo", "ra", "ri", "ru", "re", "ro", "wa", "n",
]


def random_name(rng: random.Random) -> str:
    return "".join(rng.choice(SYLLABLES) for _ in range(rng.randrange(2, 5))).capitalize()


def make_pairs(count: int, seed: int = 7) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        a = random_name(rng)
        # Half the pairs are near-misses of each other.
        if rng.random() < 0.5:
            b = list(a)
            b[rng.randrange(len(b))] = rng.choice("aiueo")
            b = "".join(b)
        else:
            b = random_name(rng)
        pairs.append((a, b))
    return pairs


def bench(function, pairs, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        for a, b in pairs:
            function(a, b)
        best = min(best, time.perf_counter() - started)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=50_000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    pairs = make_pairs(args.pairs)
    print(f"{args.pairs} name pairs, best of {args.repeat} runs")
    for label, function in (
        ("exact", levenshtein),
        ("limit=2", lambda a, b: levenshtein(a, b, 2)),
        # The smallest budget that fills the table.
        ("limit=3", lambda a, b: levenshtein(a, b, 3)),
    ):
        elapsed = bench(function, pairs, args.repeat)
        print(f"{label:<12}: {elapsed:8.3f} s  ({args.pairs / elapsed:>12,.0f} pairs/s)")

    sample = [(f"{a} {b}", f"{b} {a}") for a, b in pairs[:2_000]]
    cfg = MatchConfig()
    elapsed = bench(lambda a, b: names_match(a, b, cfg), sample, args.repeat)
    print(f"names_match : {len(sample) / elapsed:>12,.0f} comparisons/s (full names)")

    # The constructor cuts the tokens for the budget; the sample's tokens
    # are then looked up in the vocabulary of every pair.
    started = time.perf_counter()
    vocabulary = TokenVocabulary(
        (name for pair in pairs for name in pair), cfg.lev_threshold
    )
    built = time.perf_counter() - started
    queries = [
        (token, None)
        for token in dict.fromkeys(name.casefold() for pair in pairs[:2_000] for name in pair)
    ]
    elapsed = bench(lambda token, _: vocabulary.near(token), queries, args.repeat)
    print(
        f"near        : {len(queries) / elapsed:>12,.0f} tokens/s"
        f" ({len(queries)} tokens in a vocabulary of {len(vocabulary.names)},"
        f" index built in {built * 1e3:.1f} ms)"
    )


if __name__ == "__main__":
    main()
