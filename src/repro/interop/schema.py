"""Service-interface schemas and message validation.

Section 3.9: for non-legacy systems "the use of a markup language ... that
provides semantic independence is necessary to guarantee interoperability".
A :class:`MessageSchema` describes the fields of one message; an
:class:`InterfaceSchema` describes a service's operations. Both serialize to
SML, so a consumer written against the markup alone can validate and invoke
a supplier it has never linked against.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import SchemaError
from repro.interop import sml

#: Supported field types and their Python checks.
_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "bytes": lambda v: isinstance(v, (bytes, bytearray)),
    "list": lambda v: isinstance(v, list),
    "dict": lambda v: isinstance(v, dict),
    "any": lambda v: True,
}


class FieldSpec:
    """One field of a message: name, type, and whether it is required."""

    __slots__ = ("name", "type", "required")

    def __init__(self, name: str, type: str = "any",
                 required: bool = True) -> None:
        self.name = name
        self.type = type
        self.required = required
        if self.type not in _TYPE_CHECKS:
            raise SchemaError(
                f"unknown field type {self.type!r}; known: {sorted(_TYPE_CHECKS)}"
            )

    def check(self, value: Any) -> None:
        if not _TYPE_CHECKS[self.type](value):
            raise SchemaError(
                f"field {self.name!r} expects {self.type}, got {type(value).__name__}"
            )


class MessageSchema:
    """A named message type with typed fields."""

    __slots__ = ("name", "fields")

    def __init__(self, name: str, fields: Tuple[FieldSpec, ...] = ()) -> None:
        self.name = name
        self.fields = fields

    def validate(self, message: Mapping[str, Any]) -> None:
        """Raise :class:`SchemaError` unless ``message`` conforms."""
        known = {f.name: f for f in self.fields}
        for spec in self.fields:
            if spec.name not in message:
                if spec.required:
                    raise SchemaError(
                        f"message {self.name!r} is missing required field {spec.name!r}"
                    )
                continue
            spec.check(message[spec.name])
        unknown = set(message) - set(known)
        if unknown:
            raise SchemaError(
                f"message {self.name!r} has unknown fields {sorted(unknown)}"
            )


class OperationSpec:
    """One operation of a service interface."""

    __slots__ = ("name", "params", "returns")

    def __init__(self, name: str, params: MessageSchema,
                 returns: str = "any") -> None:
        self.name = name
        self.params = params
        self.returns = returns
        if self.returns not in _TYPE_CHECKS:
            raise SchemaError(f"unknown return type {self.returns!r}")

    def validate_params(self, params: Mapping[str, Any]) -> None:
        self.params.validate(params)

    def validate_result(self, result: Any) -> None:
        if not _TYPE_CHECKS[self.returns](result) and result is not None:
            raise SchemaError(
                f"operation {self.name!r} must return {self.returns}, "
                f"got {type(result).__name__}"
            )


class InterfaceSchema:
    """A service interface: a name and a set of operations."""

    __slots__ = ("name", "operations")

    def __init__(self, name: str) -> None:
        self.name = name
        self.operations: Dict[str, OperationSpec] = {}

    def add_operation(
        self,
        name: str,
        params: Optional[List[FieldSpec]] = None,
        returns: str = "any",
    ) -> OperationSpec:
        if name in self.operations:
            raise SchemaError(f"operation {name!r} already defined on {self.name!r}")
        spec = OperationSpec(
            name, MessageSchema(f"{self.name}.{name}", tuple(params or ())), returns
        )
        self.operations[name] = spec
        return spec

    def operation(self, name: str) -> OperationSpec:
        try:
            return self.operations[name]
        except KeyError:
            raise SchemaError(
                f"interface {self.name!r} has no operation {name!r}; "
                f"known: {sorted(self.operations)}"
            ) from None

    # --------------------------------------------------------- SML round-trip

    def to_sml(self) -> sml.SmlElement:
        root = sml.element("interface", name=self.name)
        for op in self.operations.values():
            op_node = root.add("operation", name=op.name, returns=op.returns)
            for f in op.params.fields:
                op_node.add(
                    "param", name=f.name, type=f.type,
                    required="true" if f.required else "false",
                )
        return root

    @staticmethod
    def from_sml(root: sml.SmlElement) -> "InterfaceSchema":
        if root.tag != "interface":
            raise SchemaError(f"expected <interface>, got <{root.tag}>")
        schema = InterfaceSchema(root.require("name"))
        for op_node in root.children_named("operation"):
            params = [
                FieldSpec(
                    p.require("name"),
                    p.get("type", "any") or "any",
                    p.get("required", "true") == "true",
                )
                for p in op_node.children_named("param")
            ]
            schema.add_operation(
                op_node.require("name"), params, op_node.get("returns", "any") or "any"
            )
        return schema

    def markup(self) -> str:
        """The interface as markup text (what goes in a service description)."""
        return sml.serialize(self.to_sml())

    @staticmethod
    def from_markup(text: str) -> "InterfaceSchema":
        return InterfaceSchema.from_sml(sml.parse(text))
