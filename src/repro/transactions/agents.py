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

from repro.errors import AddressError, ConfigurationError, TransactionError
from repro.interop.codec import Codec, get_codec, try_decode_dict, wire_plain
from repro.interop.frames import WireFrame
from repro.transport.base import Address, Transport, drop_malformed
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


class AgentHost:
    """One node's agent runtime: receives, runs, and forwards agents.

    ``services`` is the local resource dict the node offers to visiting
    agents (sensor read functions, caches, ...). Events (via
    :attr:`events`): ``"agent_arrived"`` / ``"agent_departed"`` (name).
    """

    def __init__(
        self,
        transport: Transport,
        services: Optional[Dict[str, Any]] = None,
        codec: Optional[Codec] = None,
    ):
        self.transport = transport
        self.services: Dict[str, Any] = services if services is not None else {}
        self.codec = codec if codec is not None else get_codec("binary")
        self.events = EventEmitter()
        self._registry: Dict[str, Type[MobileAgent]] = {}
        self._homecoming: Dict[str, List[Promise]] = {}
        self.agents_hosted = 0
        self.agents_refused = 0
        self.malformed_frames = 0
        transport.set_receiver(self._on_message)

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

    def _send(self, destination: Address, message: Dict[str, Any]) -> None:
        self.transport.send(destination, WireFrame(message, self.codec))

    # -------------------------------------------------------------- receive

    def _on_message(self, source: Address, payload: bytes) -> None:
        message = try_decode_dict(self.codec, payload)
        if message is None or not isinstance(message.get("name"), str):
            drop_malformed(self)
            return
        op = message.get("op")
        if op == "agent":
            self._host_agent(message)
        elif op == "agent_done":
            if not isinstance(message.get("state"), dict):
                drop_malformed(self)
                return
            self._welcome_home(message, success=True)
        elif op == "agent_refused":
            self._welcome_home(message, success=False)

    def _host_agent(self, message: Dict[str, Any]) -> None:
        name = message["name"]
        state, itinerary, hops = (
            message.get("state"), message.get("itinerary"), message.get("hops"))
        if not (isinstance(state, dict) and isinstance(itinerary, list)
                and isinstance(hops, int)):
            drop_malformed(self)
            return
        try:
            home = Address.parse(message.get("home"))
            next_stop = Address.parse(itinerary[0]) if itinerary else None
        except (AddressError, AttributeError):  # empty / not a string
            drop_malformed(self)
            return
        agent_class = self._registry.get(name)
        if agent_class is None:
            self.agents_refused += 1
            self._send(home, {"op": "agent_refused", "name": name,
                              "at": str(self.address)})
            return
        # A copy: the frame's state is the previous stop's agent's own dict.
        agent = agent_class(wire_plain(state))
        self.agents_hosted += 1
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
                {**message, "state": agent.state, "itinerary": itinerary[1:],
                 "hops": hops + 1},
            )
        else:
            self._send(home, {"op": "agent_done", "name": name,
                              "state": agent.state, "hops": hops})

    def _welcome_home(self, message: Dict[str, Any], success: bool) -> None:
        waiting = self._homecoming.get(message["name"], [])
        if not waiting:
            return
        promise = waiting.pop(0)
        if success:
            promise.fulfill(wire_plain(message["state"]))
        else:
            promise.reject(
                TransactionError(
                    f"agent {message['name']!r} refused at {message.get('at')}"
                )
            )
