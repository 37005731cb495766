"""Minimal lenient HTML DOM for the extraction engine.

Builds a tree from tag-soup HTML with the implicit-close rules that
loose HTML parsing applies (a ``<p>`` is closed by a following block
element, anchors never nest, table cells auto-close, …); the play
reader's one pass shares them.  The reference used a libxml-backed
DOM (`/root/reference/src/parser/analyzer/ParseShakespeare.php:19-20`),
so the auto-close behavior here is tuned to match libxml on the golden
corpus inputs.
"""

from __future__ import annotations

import html as _html
import re
from typing import List, Optional, Union

VOID_ELEMENTS = frozenset({
    "br", "hr", "img", "meta", "link", "input", "base", "area", "col",
    "embed", "param", "source", "track", "wbr",
})

_BLOCK = frozenset({
    "p", "blockquote", "h1", "h2", "h3", "h4", "h5", "h6", "table", "div",
    "ul", "ol", "dl", "pre", "address", "center", "form",
})

# an open element E (keys) is implicitly closed when any tag in the
# value set starts while E is on top of the stack.
_CLOSED_BY = {
    "p": _BLOCK | {"li", "tr", "td", "th"},
    "a": {"a"},
    "td": {"td", "th", "tr"},
    "th": {"td", "th", "tr"},
    "tr": {"tr"},
    "li": {"li"},
    "option": {"option"},
    "dd": {"dd", "dt"},
    "dt": {"dd", "dt"},
}


class Node:
    __slots__ = ("tag", "attrs", "children", "parent")

    def __init__(self, tag: str, attrs: Optional[dict] = None,
                 parent: Optional["Node"] = None) -> None:
        self.tag = tag
        self.attrs = attrs or {}
        self.children: List[Union["Node", str]] = []
        self.parent = parent

    def get(self, attr: str) -> Optional[str]:
        return self.attrs.get(attr)

    def text(self) -> str:
        """Concatenated descendant text (DOM nodeValue for elements)."""
        out: List[str] = []
        stack: List[Union[Node, str]] = [self]
        while stack:
            n = stack.pop()
            if isinstance(n, str):
                out.append(n)
            else:
                stack.extend(reversed(n.children))
        return "".join(out)

    def find_first(self, tag: str) -> Optional["Node"]:
        """First element with ``tag`` in document order (self included)."""
        stack: List[Node] = [self]
        while stack:
            n = stack.pop(0)
            if n.tag == tag:
                return n
            stack[:0] = [c for c in n.children if isinstance(c, Node)]
        return None

    def element_children(self) -> List["Node"]:
        return [c for c in self.children if isinstance(c, Node)]


_TOKEN = re.compile(
    r"<(?:!--.*?-->"                            # comments
    r"|!\[CDATA\[.*?\]\]>"                      # CDATA
    r"|![^>]*+>"                                # doctype / declarations
    r"|\?[^>]*+>"                               # processing instructions
    r"|/\s*+([A-Za-z][-A-Za-z0-9:_.]*+)\s*+>"   # end tag
    r"|([A-Za-z][-A-Za-z0-9:_.]*+)"             # start tag name
    r"((?:[^>\"'/]++|/(?!>)|\"[^\"]*+\"|'[^']*+')*+)"  # attributes
    r"(/?)>)",                                  # self-close mark
    re.S)
# A start tag's attributes run to the first ``>`` or ``/>`` outside
# quotes.  The loop's alternatives are told apart by their first
# character (a run of plain characters, a ``/`` not before ``>``, a
# quoted value), so it has only one way to read any text and never
# needs to backtrack: the possessive loop ends exactly where a lazy one
# (``(?:[^>"']|"[^"]*"|'[^']*')*?``) would first find ``/?>``, and an
# unclosed quote fails the tag either way.  The name runs are possessive
# for the same reason (what follows each cannot extend it), and the
# shared ``<`` is a literal prefix the scanner searches for directly.
# ``tests/test_htmldom_tokens.py`` holds the split to the lazy pattern.

_ATTR = re.compile(
    r"([A-Za-z_:][-A-Za-z0-9_:.]*)"
    r"(?:\s*=\s*(\"[^\"]*\"|'[^']*'|[^\s>]*))?")


def _decode_value(val: Optional[str]) -> str:
    """An ``_ATTR`` value group as the attribute's text: no value reads
    as "", quotes come off, entities are unescaped."""
    if val is None:
        return ""
    if val[:1] in ("'", '"'):
        val = val[1:-1]
    return _html.unescape(val) if "&" in val else val


def _parse_attrs(raw: str) -> dict:
    attrs = {}
    for m in _ATTR.finditer(raw):
        attrs.setdefault(m.group(1).lower(), _decode_value(m.group(2)))
    return attrs


def attr_value(raw: str, name: str) -> Optional[str]:
    """The value ``_parse_attrs(raw)`` holds for ``name`` (lower case),
    read from the first ``name`` attribute without decoding the rest."""
    m = _ATTR.search(raw)
    while m is not None:
        key, val = m.groups()
        if key.lower() == name:
            return _decode_value(val)
        m = _ATTR.search(raw, m.end())
    return None


def parse_html(text: str) -> Node:
    """The lenient DOM of ``text``: one ``_TOKEN`` scan with the
    implicit-close rules above.  Comments, declarations and processing
    instructions are dropped; script/style content is not lexed as raw
    text (no supported input has markup inside it)."""
    root = Node("#document")
    stack = [root]
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() > pos:
            data = text[pos:m.start()]
            if "&" in data:
                data = _html.unescape(data)
            stack[-1].children.append(data)
        pos = m.end()
        end_name, start_name, attr_raw, self_close = \
            m.group(1), m.group(2), m.group(3), m.group(4)
        if start_name is not None:
            tag = start_name.lower()
            while len(stack) > 1 and tag in _CLOSED_BY.get(stack[-1].tag, ()):
                stack.pop()
            node = Node(tag, _parse_attrs(attr_raw) if attr_raw.strip() else {},
                        stack[-1])
            stack[-1].children.append(node)
            if not self_close and tag not in VOID_ELEMENTS:
                stack.append(node)
        elif end_name is not None:
            tag = end_name.lower()
            if tag in VOID_ELEMENTS:
                continue
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].tag == tag:
                    del stack[i:]
                    break
    if pos < len(text):
        data = text[pos:]
        if "&" in data:
            data = _html.unescape(data)
        stack[-1].children.append(data)
    return root
