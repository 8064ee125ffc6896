"""Mobile software agents.

Section 3.6 lists "software agents" first among the technologies used for
supplier-consumer transactions (the literature review's [21, 42, 49, 72]).
An agent is code plus state that *moves to the data*: instead of N remote
calls, the consumer dispatches an agent that hops across supplier nodes,
accumulates results locally at each stop, and returns home with the answer
— one network crossing per hop instead of a round trip per interaction.

Security model: agent *code* never travels. Both ends register agent
classes in a local registry by name; only the agent's name, its state dict
(codec-encodable values), and its itinerary go on the wire. A host that
does not know an agent's name refuses it (counted, and reported home).

Protocol (codec dicts)::

    hop:  {"op": "agent", "name": n, "state": {...}, "itinerary": [addr...],
           "home": addr, "hops": k}
    done: {"op": "agent_done", "name": n, "state": {...}, "hops": k}
    err:  {"op": "agent_refused", "name": n, "at": addr}
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional, Type

from repro.errors import ConfigurationError, TransactionError
from repro.interop.codec import wire_plain
from repro.transport.base import Address, Transport
from repro.transport.endpoint import MessageEndpoint, optional
from repro.util.events import EventEmitter
from repro.util.promise import Promise


class MobileAgent(abc.ABC):
    """Base class for agents. Subclasses override :meth:`visit`.

    ``state`` must stay codec-encodable (None/bool/int/float/str/bytes/
    list/dict) — it is the only part of the agent that travels.
    """

    #: Wire name; defaults to the class name.
    agent_name: str = ""

    def __init__(self, state: Optional[Dict[str, Any]] = None):
        self.state: Dict[str, Any] = state if state is not None else {}

    @classmethod
    def name(cls) -> str:
        return cls.agent_name or cls.__name__

    @abc.abstractmethod
    def visit(self, host: "AgentHost") -> None:
        """Run at each stop; read/write ``self.state`` and use
        ``host.services`` (whatever the hosting node exposed to agents)."""


def _next_stop(itinerary: Any) -> Optional[Address]:
    """Frame-field parser: where the stops still ahead begin, None once
    there are none. Each host checks only the hop it has to make."""
    if not isinstance(itinerary, list):
        raise TypeError(f"expected a list, got {type(itinerary).__name__}")
    return Address.parse(itinerary[0]) if itinerary else None


class AgentHost(MessageEndpoint):
    """One node's agent runtime: receives, runs, and forwards agents.

    ``services`` is the local resource dict the node offers to visiting
    agents (sensor read functions, caches, ...). Events (via
    :attr:`events`): ``"agent_arrived"`` / ``"agent_departed"`` (name).
    """

    OPS = {
        "agent": ({"name": str, "state": dict, "hops": int,
                   "home": Address.parse, "itinerary": _next_stop},
                  "_host_agent"),
        "agent_done": ({"name": str, "state": dict}, "_on_done"),
        "agent_refused": ({"name": str, "at": optional(str)}, "_on_refused"),
    }

    def __init__(
        self,
        transport: Transport,
        services: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(transport)
        self.services: Dict[str, Any] = services if services is not None else {}
        self.events = EventEmitter()
        self._registry: Dict[str, Type[MobileAgent]] = {}
        self._homecoming: Dict[str, List[Promise]] = {}
        self.agents_refused = 0

    @property
    def address(self) -> Address:
        return self.transport.local_address

    # ------------------------------------------------------------- registry

    def register(self, agent_class: Type[MobileAgent]) -> None:
        """Allow this agent class to run here (and be dispatched from here)."""
        if not issubclass(agent_class, MobileAgent):
            raise ConfigurationError(
                f"{agent_class!r} is not a MobileAgent subclass"
            )
        self._registry[agent_class.name()] = agent_class

    # ------------------------------------------------------------- dispatch

    def dispatch(
        self, agent: MobileAgent, itinerary: List[Address]
    ) -> Promise:
        """Send an agent along ``itinerary``; fulfills with its final state
        when it returns home (rejects if any stop refuses it)."""
        name = type(agent).name()
        if name not in self._registry:
            raise ConfigurationError(
                f"register {name!r} locally before dispatching it"
            )
        if not itinerary:
            raise ConfigurationError("itinerary must contain at least one stop")
        promise: Promise = Promise()
        self._homecoming.setdefault(name, []).append(promise)
        self._forward(name, agent.state, [str(a) for a in itinerary], 0)
        return promise

    def _forward(self, name: str, state: Dict[str, Any],
                 remaining: List[str], hops: int) -> None:
        next_stop = Address.parse(remaining[0])
        self._send(
            next_stop,
            {
                "op": "agent",
                "name": name,
                "state": state,
                "itinerary": remaining[1:],
                "home": str(self.address),
                "hops": hops + 1,
            },
        )

    # -------------------------------------------------------------- receive

    def _host_agent(self, source: Address, message: Dict[str, Any],
                    home: Address, next_stop: Optional[Address]) -> None:
        name, hops = message["name"], message["hops"]
        agent_class = self._registry.get(name)
        if agent_class is None:
            self.agents_refused += 1
            self._send(home, {"op": "agent_refused", "name": name,
                              "at": str(self.address)})
            return
        # A copy: the frame's state is the previous stop's agent's own dict.
        agent = agent_class(wire_plain(message["state"]))
        self.events.emit("agent_arrived", name)
        try:
            agent.visit(self)
        except Exception as exc:  # noqa: BLE001 - reported to the dispatcher
            self._send(home, {"op": "agent_refused", "name": name,
                              "at": f"{self.address} ({exc!r})"})
            return
        self.events.emit("agent_departed", name)
        if next_stop is not None:
            self._send(
                next_stop,
                {**message, "state": agent.state,
                 "itinerary": message["itinerary"][1:], "hops": hops + 1},
            )
        else:
            self._send(home, {"op": "agent_done", "name": name,
                              "state": agent.state, "hops": hops})

    def _on_done(self, source: Address, message: Dict[str, Any]) -> None:
        waiting = self._homecoming.get(message["name"])
        if waiting:
            waiting.pop(0).fulfill(wire_plain(message["state"]))

    def _on_refused(self, source: Address, message: Dict[str, Any]) -> None:
        waiting = self._homecoming.get(message["name"])
        if waiting:
            waiting.pop(0).reject(TransactionError(
                f"agent {message['name']!r} refused at {message.get('at')}"))
