"""Seeded random-number helpers, and the seed-spec parser of the CLIs.

All stochastic behaviour in the library (topology generation, channel loss,
mobility, workloads) draws from :class:`random.Random` instances created
here, never from the module-level :mod:`random` functions, so that every
experiment is reproducible from a single integer seed.
"""

from __future__ import annotations

import random
import zlib
from typing import List


def make_rng(seed: int) -> random.Random:
    """Create an independent RNG from an integer seed."""
    return random.Random(seed)


def split_rng(seed: int, label: str) -> random.Random:
    """Derive an independent, stable sub-stream from (seed, label).

    Different labels give statistically independent streams; the same
    (seed, label) pair always gives the same stream. Used to decorrelate
    e.g. channel loss from mobility within one simulation seed.
    """
    derived = (seed & 0xFFFFFFFF) ^ zlib.crc32(label.encode("utf-8"))
    return random.Random(derived)


def parse_seeds(spec: str) -> List[int]:
    """Parse a sweep seed spec: ``"0-3"`` -> [0, 1, 2, 3]; ``"1,5,9"`` ->
    [1, 5, 9]; ``"7"`` -> [7]. Comma groups may mix ranges and singletons;
    order is preserved and duplicates dropped (first occurrence wins)."""
    seeds: List[int] = []
    seen = set()
    for group in spec.split(","):
        group = group.strip()
        if not group:
            continue
        # Split on an interior dash only, so negative singletons still parse.
        if "-" in group[1:]:
            low_text, high_text = group[1:].split("-", 1)
            low, high = int(group[0] + low_text), int(high_text)
            if high < low:
                raise ValueError(f"empty seed range {group!r}")
            values = range(low, high + 1)
        else:
            values = [int(group)]
        for value in values:
            if value not in seen:
                seen.add(value)
                seeds.append(value)
    if not seeds:
        raise ValueError(f"no seeds in spec {spec!r}")
    return seeds
