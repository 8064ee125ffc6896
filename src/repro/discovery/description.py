"""Service descriptions.

A :class:`ServiceDescription` is what a supplier advertises: identity, type,
free-form attributes, supplier QoS, physical position (for spatial QoS), and
optionally the markup of its interface (Section 3.3: service discovery
"can also increase the flexibility of the middleware by providing an
abstraction of the interface in the form of markup languages").

Descriptions convert to/from plain dicts (for any codec) and to/from SML
markup (for markup-level interoperability).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError, DiscoveryError
from repro.interop import sml
from repro.qos.spec import SupplierQoS


def wire_real(raw: Any) -> float:
    """A frame field that must be a number a float can hold, as it came."""
    if not isinstance(raw, (int, float)):
        raise TypeError(f"expected a number, got {raw!r}")
    float(raw)  # OverflowError: an int beyond any float
    return raw


def wire_point(raw: Any) -> Optional[Tuple[float, float]]:
    """A frame's ``[x, y]`` as a tuple; None when the field was left out."""
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise TypeError(f"expected [x, y], got {raw!r}")
    return (wire_real(raw[0]), wire_real(raw[1]))


def wire_strings(raw: Any) -> Dict[str, str]:
    """A frame's ``str -> str`` mapping, copied."""
    if not isinstance(raw, dict):
        raise TypeError(f"expected a mapping, got {raw!r}")
    for key, value in raw.items():
        if not (isinstance(key, str) and isinstance(value, str)):
            raise TypeError(f"expected strings, got {key!r}: {value!r}")
    return dict(raw)


class ServiceDescription:
    """An advertised service."""

    __slots__ = ("service_id", "service_type", "provider", "attributes", "qos",
                 "position", "interface_markup")

    def __init__(self, service_id: str, service_type: str, provider: str,
                 attributes: Optional[Dict[str, str]] = None,
                 qos: SupplierQoS = SupplierQoS(),
                 position: Optional[Tuple[float, float]] = None,
                 interface_markup: Optional[str] = None) -> None:
        self.service_id = service_id
        self.service_type = service_type
        # transport address string, e.g. "node7:services"
        self.provider = provider
        self.attributes = {} if attributes is None else attributes
        self.qos = qos
        self.position = position
        self.interface_markup = interface_markup
        if not self.service_id:
            raise DiscoveryError("service_id must be non-empty")
        if not self.service_type:
            raise DiscoveryError("service_type must be non-empty")
        if not self.provider:
            raise DiscoveryError("provider address must be non-empty")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.service_id, self.service_type, self.provider, self.attributes,
             self.qos, self.position, self.interface_markup)
            == (other.service_id, other.service_type, other.provider,
                other.attributes, other.qos, other.position,
                other.interface_markup)
        )

    def with_position(self, x: float, y: float) -> "ServiceDescription":
        return ServiceDescription(
            self.service_id, self.service_type, self.provider, self.attributes,
            self.qos, (x, y), self.interface_markup)

    # ------------------------------------------------------------- dict form

    def to_dict(self) -> Dict[str, Any]:
        qos = self.qos
        payload: Dict[str, Any] = {
            "service_id": self.service_id,
            "service_type": self.service_type,
            "provider": self.provider,
            "attributes": dict(self.attributes),
            "qos": {
                "reliability": qos.reliability,
                "availability": qos.availability,
                "expected_latency_s": qos.expected_latency_s,
                "bandwidth_bps": qos.bandwidth_bps,
                "battery_powered": qos.battery_powered,
                "battery_fraction": qos.battery_fraction,
                "requires_password": qos.requires_password,
                "encrypted": qos.encrypted,
                "properties": dict(qos.properties),
            },
        }
        if self.position is not None:
            payload["position"] = [self.position[0], self.position[1]]
        if self.interface_markup is not None:
            payload["interface"] = self.interface_markup
        return payload

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "ServiceDescription":
        """Rebuild a description from its wire form, every field checked:
        what this returns, matching, ranking and caching can use without
        a second look. Anything else raises :class:`DiscoveryError`."""
        try:
            qos_raw = payload.get("qos", {})
            fraction = qos_raw.get("battery_fraction")
            description = ServiceDescription(
                service_id=payload["service_id"],
                service_type=payload["service_type"],
                provider=payload["provider"],
                attributes=wire_strings(payload.get("attributes", {})),
                qos=SupplierQoS(
                    reliability=wire_real(qos_raw.get("reliability", 1.0)),
                    availability=wire_real(qos_raw.get("availability", 1.0)),
                    expected_latency_s=wire_real(
                        qos_raw.get("expected_latency_s", 0.01)),
                    bandwidth_bps=wire_real(qos_raw.get("bandwidth_bps", 0.0)),
                    battery_powered=qos_raw.get("battery_powered", False),
                    battery_fraction=(
                        fraction if fraction is None else wire_real(fraction)),
                    requires_password=qos_raw.get("requires_password", False),
                    encrypted=qos_raw.get("encrypted", False),
                    properties=wire_strings(qos_raw.get("properties", {})),
                ),
                position=wire_point(payload.get("position")),
                interface_markup=payload.get("interface"),
            )
            qos = description.qos
            if not (isinstance(description.service_id, str)
                    and isinstance(description.service_type, str)
                    and isinstance(description.provider, str)
                    and isinstance(description.interface_markup,
                                   (str, type(None)))
                    and isinstance(qos.battery_powered, bool)
                    and isinstance(qos.requires_password, bool)
                    and isinstance(qos.encrypted, bool)):
                raise TypeError("identity fields are strings, flags booleans")
            return description
        except (LookupError, TypeError, AttributeError, OverflowError,
                ConfigurationError) as exc:
            raise DiscoveryError(f"malformed service description: {exc!r}") from exc

    # -------------------------------------------------------------- markup

    def to_sml(self) -> sml.SmlElement:
        root = sml.element(
            "service", id=self.service_id, type=self.service_type, provider=self.provider
        )
        attributes = root.add("attributes")
        for name, value in self.attributes.items():
            attributes.add("attr", name=name, value=value)
        qos = root.add(
            "qos",
            reliability=repr(self.qos.reliability),
            availability=repr(self.qos.availability),
            latency=repr(self.qos.expected_latency_s),
        )
        if self.qos.encrypted:
            qos.attributes["encrypted"] = "true"
        if self.qos.requires_password:
            qos.attributes["password"] = "true"
        if self.position is not None:
            root.add("position", x=repr(self.position[0]), y=repr(self.position[1]))
        if self.interface_markup is not None:
            root.add("interface", text=self.interface_markup)
        return root

    def markup(self) -> str:
        return sml.serialize(self.to_sml())

    @staticmethod
    def from_sml(root: sml.SmlElement) -> "ServiceDescription":
        if root.tag != "service":
            raise DiscoveryError(f"expected <service>, got <{root.tag}>")
        attributes: Dict[str, str] = {}
        attrs_node = root.child("attributes")
        if attrs_node is not None:
            for attr in attrs_node.children_named("attr"):
                attributes[attr.require("name")] = attr.require("value")
        qos_node = root.child("qos")
        qos = SupplierQoS()
        if qos_node is not None:
            qos = SupplierQoS(
                reliability=float(qos_node.get("reliability", "1.0") or "1.0"),
                availability=float(qos_node.get("availability", "1.0") or "1.0"),
                expected_latency_s=float(qos_node.get("latency", "0.01") or "0.01"),
                encrypted=qos_node.get("encrypted") == "true",
                requires_password=qos_node.get("password") == "true",
            )
        position = None
        pos_node = root.child("position")
        if pos_node is not None:
            position = (float(pos_node.require("x")), float(pos_node.require("y")))
        iface_node = root.child("interface")
        return ServiceDescription(
            service_id=root.require("id"),
            service_type=root.require("type"),
            provider=root.require("provider"),
            attributes=attributes,
            qos=qos,
            position=position,
            interface_markup=iface_node.text if iface_node is not None else None,
        )

    @staticmethod
    def from_markup(text: str) -> "ServiceDescription":
        return ServiceDescription.from_sml(sml.parse(text))
