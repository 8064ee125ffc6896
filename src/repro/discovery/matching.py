"""The matching engine: attribute predicates + QoS scoring.

Section 3.3 calls for "sophisticated matching criteria based on quality of
service". A :class:`Query` filters candidates by type and attribute
constraints; the :class:`Matcher` then ranks survivors with the three-way
QoS score of :func:`repro.qos.spec.score_match`, including spatial QoS when
the consumer supplies a position.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.discovery.description import (
    ServiceDescription, wire_point, wire_real)
from repro.errors import ConfigurationError, DiscoveryError
from repro.qos.spec import ConsumerQoS, MatchScore, score_match

#: Supported constraint operators.
_OPERATORS = ("=", "!=", "contains", ">=", "<=")


class AttributeConstraint:
    """One predicate over a service attribute.

    ``>=``/``<=`` compare numerically (the attribute must parse as float);
    the others compare as strings. A missing attribute fails every
    constraint except ``!=``.
    """

    __slots__ = ("name", "op", "value")

    def __init__(self, name: str, op: str, value: str) -> None:
        self.name = name
        self.op = op
        self.value = value
        if self.op not in _OPERATORS:
            raise DiscoveryError(
                f"unknown constraint operator {self.op!r}; known: {_OPERATORS}"
            )

    def matches(self, attributes: Dict[str, str]) -> bool:
        actual = attributes.get(self.name)
        if actual is None:
            return self.op == "!="
        if self.op == "=":
            return actual == self.value
        if self.op == "!=":
            return actual != self.value
        if self.op == "contains":
            return self.value in actual
        try:
            left, right = float(actual), float(self.value)
        except ValueError:
            return False
        return left >= right if self.op == ">=" else left <= right

    def to_dict(self) -> Dict[str, str]:
        return {"name": self.name, "op": self.op, "value": self.value}

    @staticmethod
    def from_dict(raw: Dict[str, str]) -> "AttributeConstraint":
        """Rebuild a constraint from its wire form: name and value must be
        strings (what :meth:`matches` compares), or :class:`DiscoveryError`."""
        try:
            name, op, value = raw["name"], raw["op"], raw["value"]
        except (LookupError, TypeError) as exc:
            raise DiscoveryError(f"malformed constraint: {exc!r}") from exc
        if not (isinstance(name, str) and isinstance(value, str)):
            raise DiscoveryError(
                f"constraint name and value must be strings: {raw!r}")
        return AttributeConstraint(name, op, value)


class Query:
    """What a consumer asks discovery for.

    ``service_type`` of ``"*"`` matches any type. ``consumer`` carries the
    QoS requirements (may be None for attribute-only lookups);
    ``consumer_position`` enables spatial QoS.
    """

    __slots__ = ("service_type", "constraints", "consumer", "consumer_position",
                 "max_results")

    def __init__(self, service_type: str,
                 constraints: Tuple[AttributeConstraint, ...] = (),
                 consumer: Optional[ConsumerQoS] = None,
                 consumer_position: Optional[Tuple[float, float]] = None,
                 max_results: int = 10) -> None:
        self.service_type = service_type
        self.constraints = constraints
        self.consumer = consumer
        self.consumer_position = consumer_position
        self.max_results = max_results
        if not self.service_type:
            raise DiscoveryError("query service_type must be non-empty ('*' for any)")
        if self.max_results <= 0:
            raise DiscoveryError(f"max_results must be positive, got {self.max_results!r}")

    def accepts(self, description: ServiceDescription) -> bool:
        """Attribute-level filtering (before QoS scoring)."""
        if self.service_type != "*" and description.service_type != self.service_type:
            return False
        return all(c.matches(description.attributes) for c in self.constraints)

    # ------------------------------------------------------------- wire form

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "service_type": self.service_type,
            "constraints": [c.to_dict() for c in self.constraints],
            "max_results": self.max_results,
        }
        if self.consumer is not None:
            payload["consumer"] = {
                "min_reliability": self.consumer.min_reliability,
                "min_availability": self.consumer.min_availability,
                "max_latency_s": self.consumer.max_latency_s,
                "require_encryption": self.consumer.require_encryption,
                "has_password": self.consumer.password is not None,
            }
        if self.consumer_position is not None:
            payload["position"] = [self.consumer_position[0], self.consumer_position[1]]
        return payload

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "Query":
        """Rebuild a query from its wire form.

        Note: only the *hard* consumer terms travel (the soft preferences
        stay local); remote matchers filter hard terms and the consumer
        re-ranks locally with its full QoS — the standard split in SLP-like
        protocols. Every field is checked; anything a matcher could not use
        raises :class:`DiscoveryError`.
        """
        try:
            consumer = None
            raw_consumer = payload.get("consumer")
            if raw_consumer is not None:
                ceiling = raw_consumer.get("max_latency_s")
                consumer = ConsumerQoS(
                    min_reliability=wire_real(
                        raw_consumer.get("min_reliability", 0.0)),
                    min_availability=wire_real(
                        raw_consumer.get("min_availability", 0.0)),
                    max_latency_s=(
                        ceiling if ceiling is None else wire_real(ceiling)),
                    require_encryption=raw_consumer.get("require_encryption", False),
                    password="*" if raw_consumer.get("has_password") else None,
                )
            service_type = payload["service_type"]
            constraints = payload.get("constraints", [])
            max_results = payload.get("max_results", 10)
            if not (isinstance(service_type, str)
                    and isinstance(constraints, (list, tuple))
                    and isinstance(max_results, int)):
                raise TypeError("service_type is a string, constraints a "
                                "list, max_results an int")
            return Query(
                service_type=service_type,
                constraints=tuple(
                    AttributeConstraint.from_dict(c) for c in constraints),
                consumer=consumer,
                consumer_position=wire_point(payload.get("position")),
                max_results=max_results,
            )
        except (LookupError, TypeError, AttributeError, OverflowError,
                ConfigurationError) as exc:
            raise DiscoveryError(f"malformed query: {exc!r}") from exc


class Match:
    """One ranked result."""

    __slots__ = ("description", "score")

    def __init__(self, description: ServiceDescription, score: MatchScore) -> None:
        self.description = description
        self.score = score


class Matcher:
    """Ranks service descriptions against a query."""

    def distance(
        self, query: Query, description: ServiceDescription
    ) -> Optional[float]:
        if query.consumer_position is None or description.position is None:
            return None
        qx, qy = query.consumer_position
        sx, sy = description.position
        return math.hypot(qx - sx, qy - sy)

    def match(
        self, descriptions: List[ServiceDescription], query: Query
    ) -> List[Match]:
        """Filter by attributes, score by QoS, return best-first (capped)."""
        consumer = query.consumer if query.consumer is not None else ConsumerQoS()
        results: List[Match] = []
        for description in descriptions:
            if not query.accepts(description):
                continue
            score = score_match(description.qos, consumer,
                                distance_m=self.distance(query, description))
            if score is None:
                continue
            results.append(Match(description, score))
        results.sort(key=lambda m: (-m.score.total, m.description.service_id))
        return results[: query.max_results]
