"""Tests for the SML markup language."""

import pytest

from repro.errors import MarkupError
from repro.interop import sml


class TestSerialization:
    def test_empty_element_self_closes(self):
        assert sml.serialize(sml.element("null")) == "<null/>"

    def test_attributes_rendered(self):
        node = sml.element("svc", kind="printer")
        assert sml.serialize(node) == '<svc kind="printer"/>'

    def test_text_content(self):
        node = sml.element("str", text="hello")
        assert sml.serialize(node) == "<str>hello</str>"

    def test_escaping_in_text(self):
        node = sml.element("v", text="a<b & c>d")
        rendered = sml.serialize(node)
        assert "<b" not in rendered.replace("<v>", "").replace("</v>", "")
        assert sml.parse(rendered).text == "a<b & c>d"

    def test_escaping_in_attributes(self):
        node = sml.element("v", name='quo"te & <more>')
        assert sml.parse(sml.serialize(node)).require("name") == 'quo"te & <more>'

    def test_pretty_print_round_trips(self):
        root = sml.element("root")
        child = root.add("child", key="1")
        child.add("leaf", text="content")
        pretty = sml.serialize(root, indent="  ")
        assert "\n" in pretty
        reparsed = sml.parse(pretty)
        assert reparsed.child("child").child("leaf").text == "content"


class TestParsing:
    def test_nested_structure(self):
        root = sml.parse("<a><b><c/></b><b/></a>")
        assert root.tag == "a"
        assert len(root.children_named("b")) == 2
        assert root.children[0].child("c") is not None

    def test_attributes_parsed(self):
        root = sml.parse('<x one="1" two="2"/>')
        assert root.attributes == {"one": "1", "two": "2"}

    def test_single_quoted_attributes(self):
        assert sml.parse("<x a='v'/>").require("a") == "v"

    def test_whitespace_between_elements_ignored(self):
        root = sml.parse("<a>\n  <b/>\n  <c/>\n</a>")
        assert [c.tag for c in root.children] == ["b", "c"]

    def test_mismatched_close_tag_rejected(self):
        with pytest.raises(MarkupError):
            sml.parse("<a><b></a></b>")

    def test_unterminated_element_rejected(self):
        with pytest.raises(MarkupError):
            sml.parse("<a><b>")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(MarkupError):
            sml.parse("<a/><b/>")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(MarkupError):
            sml.parse('<a x="1" x="2"/>')

    def test_unquoted_attribute_rejected(self):
        with pytest.raises(MarkupError):
            sml.parse("<a x=1/>")

    def test_error_reports_position(self):
        with pytest.raises(MarkupError) as excinfo:
            sml.parse("<a>\n<b x=bad/></a>")
        assert "line 2" in str(excinfo.value)

    def test_empty_document_rejected(self):
        with pytest.raises(MarkupError):
            sml.parse("")

    def test_entities_unescaped(self):
        assert sml.parse("<v>&lt;&amp;&gt;&quot;&apos;</v>").text == "<&>\"'"


class TestElementApi:
    def test_invalid_tag_rejected(self):
        with pytest.raises(MarkupError):
            sml.element("1bad")
        with pytest.raises(MarkupError):
            sml.element("has space")
        with pytest.raises(MarkupError):
            sml.element("")

    def test_child_lookup(self):
        root = sml.element("a")
        root.add("b", text="1")
        assert root.child("b").text == "1"
        assert root.child("missing") is None

    def test_require_attribute_raises(self):
        with pytest.raises(MarkupError):
            sml.element("a").require("missing")

    def test_iteration(self):
        root = sml.element("a")
        root.add("x")
        root.add("y")
        assert [c.tag for c in root] == ["x", "y"]


class TestRoundTrip:
    @pytest.mark.parametrize("compact", [True, False])
    def test_deep_tree_round_trips(self, compact):
        root = sml.element("service", id="s&1", type="bp sensor")
        qos = root.add("qos", reliability="0.97")
        qos.add("attr", text="tricky <text> & 'quotes'", name="n")
        root.add("position", x="1.5", y="-2.5")
        text = sml.serialize(root, indent=None if compact else "  ")
        again = sml.parse(text)
        assert again.require("id") == "s&1"
        assert again.child("qos").child("attr").text == "tricky <text> & 'quotes'"
        assert again.child("position").require("y") == "-2.5"
