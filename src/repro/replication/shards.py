"""Hash-partitioning of keyed state across replica groups.

A :class:`ShardMap` is an immutable routing table: shard *i* is served by
``groups[i]``, a tuple of member data-port addresses. Keys hash with
``zlib.crc32`` — stable across processes and Python versions, unlike the
builtin ``hash`` whose string seed is randomized per interpreter — so a
client and a test harness always agree on placement.
"""

from __future__ import annotations

import zlib
from typing import Sequence, Tuple

from repro.errors import ConfigurationError
from repro.transport.base import Address


class ShardMap:
    """Routes keys to replica groups. ``groups[i]`` are shard *i*'s members."""

    __slots__ = ("groups",)

    def __init__(self, groups: Tuple[Tuple[Address, ...], ...]) -> None:
        self.groups = groups
        if not self.groups:
            raise ConfigurationError("a shard map needs at least one group")
        for members in self.groups:
            if not members:
                raise ConfigurationError("every shard needs at least one member")

    @property
    def num_shards(self) -> int:
        return len(self.groups)

    def shard_of(self, key: str) -> int:
        return zlib.crc32(str(key).encode("utf-8")) % len(self.groups)

    @staticmethod
    def build(
        node_ids: Sequence[str], num_shards: int, port: str
    ) -> "ShardMap":
        """All shards over the same node set, data ports ``port + ".s<i>"``."""
        members = sorted(node_ids)
        return ShardMap(
            tuple(
                tuple(Address(n, f"{port}.s{i}") for n in members)
                for i in range(num_shards)
            )
        )
