"""Registry mirroring.

Section 3.3: "To further increase scalability, mirroring approaches can be
introduced." A :class:`MirrorGroup` runs several registry servers that
replicate mutations to each other (full mesh, one-way sync per mutation) so
clients can register at and look up from their *nearest* mirror — reducing
both directory load and lookup path length.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.discovery.registry import RegistryClient, RegistryServer
from repro.errors import ConfigurationError
from repro.transport.base import Address, Transport


class MirrorGroup:
    """A set of mutually replicating registry servers."""

    def __init__(
        self,
        transports: Sequence[Transport],
    ):
        if not transports:
            raise ConfigurationError("a mirror group needs at least one transport")
        addresses = [t.local_address for t in transports]
        self.servers: List[RegistryServer] = []
        for i, transport in enumerate(transports):
            peers = [a for j, a in enumerate(addresses) if j != i]
            self.servers.append(RegistryServer(transport, peers=peers))

    @property
    def addresses(self) -> List[Address]:
        return [server.transport.local_address for server in self.servers]

    def client(
        self,
        transport: Transport,
        mirror_index: int = 0,
        request_timeout_s: float = 2.0,
    ) -> RegistryClient:
        """A client bound to the chosen mirror (pick the nearest)."""
        if not 0 <= mirror_index < len(self.servers):
            raise ConfigurationError(
                f"mirror index {mirror_index} out of range 0..{len(self.servers) - 1}"
            )
        return RegistryClient(
            transport,
            self.addresses[mirror_index],
            request_timeout_s=request_timeout_s,
        )

    def consistent(self) -> bool:
        """True when every mirror holds the same service-id set."""
        sets = [
            {d.service_id for d in server.registered_services()}
            for server in self.servers
        ]
        return all(s == sets[0] for s in sets[1:])
