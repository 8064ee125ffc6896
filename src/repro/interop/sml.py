"""SML — Service Markup Language.

An XML-subset markup implemented from scratch (no :mod:`xml` import), per
the reproduction's no-external-substrate rule. Supported syntax:

* elements with attributes: ``<service kind="printer"> ... </service>``
* self-closing elements: ``<null/>``
* text content with the five standard entities
  (``&amp; &lt; &gt; &quot; &apos;``)
* insignificant whitespace between elements

Not supported (and rejected loudly, never silently): processing
instructions, comments, CDATA, doctypes, namespaces. The discovery layer
uses SML for service descriptions (Section 3.3: "an abstraction of the
interface in the form of markup languages such as XML") and the interop
codec uses it as a wire format.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import MarkupError

_ESCAPES = [
    ("&", "&amp;"),  # must be first when escaping
    ("<", "&lt;"),
    (">", "&gt;"),
    ('"', "&quot;"),
    ("'", "&apos;"),
]


def escape_text(text: str) -> str:
    for raw, entity in _ESCAPES:
        text = text.replace(raw, entity)
    return text


def unescape_text(text: str) -> str:
    for raw, entity in reversed(_ESCAPES):
        text = text.replace(entity, raw)
    return text


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_-."


class SmlElement:
    """A markup element: tag, attributes, children, and text content."""

    __slots__ = ("tag", "attributes", "children", "text")

    def __init__(self, tag: str, attributes: Optional[Dict[str, str]] = None,
                 text: str = "") -> None:
        self.tag = tag
        self.attributes = {} if attributes is None else attributes
        self.children: List["SmlElement"] = []
        self.text = text
        if not self.tag or not _is_name_start(self.tag[0]) or not all(
            _is_name_char(c) for c in self.tag
        ):
            raise MarkupError(f"invalid element tag {self.tag!r}")

    # ------------------------------------------------------------ navigation

    def child(self, tag: str) -> Optional["SmlElement"]:
        """First child with the given tag, or None."""
        for c in self.children:
            if c.tag == tag:
                return c
        return None

    def children_named(self, tag: str) -> List["SmlElement"]:
        return [c for c in self.children if c.tag == tag]

    def get(self, attribute: str, default: Optional[str] = None) -> Optional[str]:
        return self.attributes.get(attribute, default)

    def require(self, attribute: str) -> str:
        try:
            return self.attributes[attribute]
        except KeyError:
            raise MarkupError(
                f"<{self.tag}> is missing required attribute {attribute!r}"
            ) from None

    # -------------------------------------------------------------- building

    def append(self, child: "SmlElement") -> "SmlElement":
        self.children.append(child)
        return child

    def add(self, tag: str, text: str = "", **attributes: str) -> "SmlElement":
        """Append and return a new child element."""
        return self.append(SmlElement(tag, dict(attributes), text=text))

    def __iter__(self) -> Iterator["SmlElement"]:
        return iter(self.children)


def element(tag: str, text: str = "", **attributes: str) -> SmlElement:
    """Convenience constructor: ``element("svc", kind="printer")``."""
    return SmlElement(tag, dict(attributes), text=text)


# --------------------------------------------------------------- serializing


def serialize(root: SmlElement, indent: Optional[str] = None) -> str:
    """Render an element tree to markup text.

    With ``indent`` (e.g. ``"  "``) the output is pretty-printed; text
    content suppresses indentation inside its element so round-trips
    preserve text exactly.
    """
    pieces: List[str] = []
    _serialize_into(root, pieces, indent, depth=0)
    return "".join(pieces)


def _serialize_into(
    node: SmlElement, pieces: List[str], indent: Optional[str], depth: int
) -> None:
    pad = indent * depth if indent else ""
    newline = "\n" if indent else ""
    attributes = "".join(
        f' {name}="{escape_text(value)}"' for name, value in node.attributes.items()
    )
    if not node.children and not node.text:
        pieces.append(f"{pad}<{node.tag}{attributes}/>{newline}")
        return
    pieces.append(f"{pad}<{node.tag}{attributes}>")
    if node.text:
        pieces.append(escape_text(node.text))
    if node.children:
        pieces.append(newline)
        for child in node.children:
            _serialize_into(child, pieces, indent, depth + 1)
        pieces.append(pad)
    pieces.append(f"</{node.tag}>{newline}")


# ------------------------------------------------------------------ parsing


class _Parser:
    """Recursive-descent parser over the raw text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> MarkupError:
        line = self.text.count("\n", 0, self.pos) + 1
        column = self.pos - self.text.rfind("\n", 0, self.pos)
        return MarkupError(f"{message} at line {line}, column {column}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_whitespace(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def read_name(self) -> str:
        start = self.pos
        if self.pos >= len(self.text) or not _is_name_start(self.text[self.pos]):
            raise self.error("expected a name")
        while self.pos < len(self.text) and _is_name_char(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos]

    def read_attributes(self) -> Dict[str, str]:
        attributes: Dict[str, str] = {}
        while True:
            self.skip_whitespace()
            ch = self.peek()
            if ch in ("", ">", "/"):
                return attributes
            name = self.read_name()
            self.skip_whitespace()
            self.expect("=")
            self.skip_whitespace()
            quote = self.peek()
            if quote not in ('"', "'"):
                raise self.error("attribute value must be quoted")
            self.pos += 1
            end = self.text.find(quote, self.pos)
            if end < 0:
                raise self.error("unterminated attribute value")
            raw = self.text[self.pos:end]
            self.pos = end + 1
            if name in attributes:
                raise self.error(f"duplicate attribute {name!r}")
            attributes[name] = unescape_text(raw)

    def parse_element(self) -> SmlElement:
        self.expect("<")
        tag = self.read_name()
        attributes = self.read_attributes()
        self.skip_whitespace()
        if self.peek() == "/":
            self.expect("/>")
            return SmlElement(tag, attributes)
        self.expect(">")
        node = SmlElement(tag, attributes)
        text_pieces: List[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self.error(f"unterminated <{tag}>")
            if self.text.startswith("</", self.pos):
                self.pos += 2
                closing = self.read_name()
                if closing != tag:
                    raise self.error(f"mismatched </{closing}>, expected </{tag}>")
                self.skip_whitespace()
                self.expect(">")
                raw_text = unescape_text("".join(text_pieces))
                # Text-only elements keep their content exactly (data);
                # elements with children strip it (formatting whitespace).
                node.text = raw_text if not node.children else raw_text.strip()
                return node
            if self.peek() == "<":
                node.children.append(self.parse_element())
            else:
                next_tag = self.text.find("<", self.pos)
                if next_tag < 0:
                    raise self.error(f"unterminated <{tag}>")
                text_pieces.append(self.text[self.pos:next_tag])
                self.pos = next_tag

    def parse_document(self) -> SmlElement:
        self.skip_whitespace()
        if self.peek() != "<":
            raise self.error("document must start with an element")
        root = self.parse_element()
        self.skip_whitespace()
        if self.pos != len(self.text):
            raise self.error("trailing content after root element")
        return root


def parse(text: str) -> SmlElement:
    """Parse markup text into an element tree; raises :class:`MarkupError`."""
    return _Parser(text).parse_document()
