"""Shakespeare-style HTML play reader (the HTML extraction path).

Behavioral spec re-derived from the reference's shakespeare reader
(`/root/reference/src/parser/analyzer/ParseShakespeare.php:8-122`):

* title from ``<head><title>`` with the last 13 chars (": Entire Play")
  sliced off unconditionally;
* a synthesized 49-line title page: 17 blanks, Title, 3 blanks, a
  centered "By", 2 blanks, Author ("William Shakespeare"), 24 blanks;
* a walk over direct children of ``<body>`` consuming only ``a`` /
  ``blockquote`` / ``h3`` elements — everything else (nav tables,
  bare stage-direction ``<i>`` inside blockquotes, stray ``<p>``)
  is dropped: this IS the DOM-heuristic boilerplate strip;
* ``<a name=speechN>`` → Character, with consecutive speakers merged
  into ``"X & Y"``;
* inside blockquote: ``<a name=…>`` → Dialog (leading ``[…]`` pulled
  out as a Paren, keeping the quirky leading space on the remainder;
  literal "EPILOGUE" → Slugline); ``<p>`` → Action unless it starts
  with "To " or equals "Aside" (→ Paren);
* ``<h3>`` → Act when prefixed "ACT" else Slugline.

``parse_shakespeare_text`` is the production reader: one pass over the
``htmldom`` tokenizer's matches that keeps only a stack of open tag
names (with the tree builder's implicit-close rules), collects text
only under the elements the walk reads, and yields the play as
``(JSON kind, text)`` records.  ``parse_shakespeare_dom`` is the walk
above over the full ``parse_html`` tree, kept as its test-side
reference (``tests/test_html_play_records.py``).
"""

from __future__ import annotations

import html as _html
from typing import List, Tuple

from ..engine.objects import ScriptObject, internal_type_name
from ..functions.textutil import (
    collapse_blanks_and_newlines,
    is_prefix,
    strip_color_formatting,
)
from .htmldom import _CLOSED_BY, _TOKEN, VOID_ELEMENTS, _parse_attrs, parse_html

ENTIRE_PLAY_SUFFIX_LEN = len(": Entire Play")
AUTHOR = "William Shakespeare"

Record = Tuple[str, str]  # (JSON kind, text)

# the synthesized title page around its one variable line, the Title
_BLANK: Record = ("Text", "")
_TITLE_PAGE_BEFORE: List[Record] = [_BLANK] * 17
_TITLE_PAGE_AFTER: List[Record] = (
    [_BLANK] * 3 + [("Text", "By")] + [_BLANK] * 2 + [("Author", AUTHOR)]
    + [_BLANK] * 24)
TITLE_PAGE_LINES = len(_TITLE_PAGE_BEFORE) + 1 + len(_TITLE_PAGE_AFTER)
_BY_LINE = len(_TITLE_PAGE_BEFORE) + 4

# roles of the elements the walk reads; 0 is every other element.
# Roles from _TITLE on collect their descendant text.
_HEAD, _BODY, _QUOTE, _TITLE, _SPEECH, _H3, _LINE, _PARA = range(1, 9)
# (parent role, tag) -> role; the first head/body are found by tag
_CHILD_ROLE = {
    (_HEAD, "title"): _TITLE,
    (_BODY, "a"): _SPEECH,  # only with a name="speech…" attribute
    (_BODY, "h3"): _H3,
    (_BODY, "blockquote"): _QUOTE,
    (_QUOTE, "a"): _LINE,
    (_QUOTE, "p"): _PARA,
}


def _append_records(records: List[Record], role: int, content: str) -> None:
    """The records of one closed body element, as the walk makes them.
    Tests run on the collapsed text; colour markers are stripped after,
    as ``ScriptObject.__init__`` does."""
    strip = strip_color_formatting
    if role == _LINE:
        if content == "EPILOGUE":
            records.append(("Scene", content))
            return
        if content[:1] == "[":
            end = content.find("]")
            if end != -1:
                records.append(("Parens", strip("(" + content[1:end] + ")")))
                content = content[end + 1:]
        if content != "":
            records.append(("Dialogue", strip(content)))
    elif role == _SPEECH:
        if records and records[-1][0] == "Character":
            # two characters speaking at once merge: "X & Y"; the
            # appended name keeps its colour markers (set_content)
            records[-1] = ("Character", f"{records[-1][1]} & {content}")
        else:
            records.append(("Character", strip(content)))
    elif role == _PARA:
        if is_prefix(content, "To ") or content == "Aside":
            records.append(("Parens", strip("(" + content + ")")))
        else:
            records.append(("Action", strip(content)))
    else:  # _H3
        records.append(("New Act" if is_prefix(content, "ACT") else "Scene",
                        strip(content)))


def parse_shakespeare_text(html_text: str) -> List[Record]:
    """One Shakespeare-style HTML document → its ordered
    ``(JSON kind, text)`` records, title page first."""
    stack = ["#document"]  # open tag names, as parse_html's builder keeps them
    roles = [0]
    starts: List[int] = []  # where in ``chunks`` each open collector began
    chunks: List[str] = []  # text under the open collectors
    records: List[Record] = []
    title = ""
    seen_head = seen_body = False

    def unwind(depth: int) -> None:
        """Close the open elements above ``depth``, innermost first."""
        nonlocal title
        while len(stack) > depth:
            stack.pop()
            role = roles.pop()
            if role >= _TITLE:
                content = collapse_blanks_and_newlines(
                    "".join(chunks[starts.pop():]))
                if not starts:
                    chunks.clear()
                if role == _TITLE:
                    title = content[: len(content) - ENTIRE_PLAY_SUFFIX_LEN]
                else:
                    _append_records(records, role, content)

    pos = 0
    for m in _TOKEN.finditer(html_text):
        begin, end = m.span()
        if starts and begin > pos:
            data = html_text[pos:begin]
            chunks.append(_html.unescape(data) if "&" in data else data)
        pos = end
        end_name, start_name, attr_raw, self_close = m.groups()
        if start_name is not None:
            tag = start_name.lower()
            while len(stack) > 1 and tag in _CLOSED_BY.get(stack[-1], ()):
                unwind(len(stack) - 1)
            parent = roles[-1]
            role = _CHILD_ROLE.get((parent, tag), 0) if parent else 0
            if role == _SPEECH and not is_prefix(
                    _parse_attrs(attr_raw).get("name") or "", "speech"):
                role = 0  # non-speech anchors at body level are dropped
            elif tag == "head" and not seen_head:
                role, seen_head = _HEAD, True
            elif tag == "body" and not seen_body:
                role, seen_body = _BODY, True
            stack.append(tag)
            roles.append(role)
            if role >= _TITLE:
                starts.append(len(chunks))
            if self_close or tag in VOID_ELEMENTS:
                unwind(len(stack) - 1)  # closed as soon as opened
        elif end_name is not None:
            tag = end_name.lower()
            if tag in VOID_ELEMENTS:
                continue
            for i in range(len(stack) - 1, 0, -1):
                if stack[i] == tag:
                    unwind(i)
                    break
        # comments/doctype/PI: dropped
    if starts and pos < len(html_text):
        data = html_text[pos:]
        chunks.append(_html.unescape(data) if "&" in data else data)
    unwind(1)

    out = _TITLE_PAGE_BEFORE + [("Title", strip_color_formatting(title))]
    out += _TITLE_PAGE_AFTER
    out += records
    return out


def _obj(type_: str, content: str, title_page: bool = False) -> ScriptObject:
    page_num = 1 if title_page else 2
    return ScriptObject(type_, content, page_num, page_num,
                        colors={}, font_size=16, text_attributes={},
                        pdf_path=False)


def records_to_objects(records: List[Record]) -> List[ScriptObject]:
    """The ScriptObjects ``cli convert`` writes, from a play's records:
    the title page on page 1 with "By" centered, the body on page 2."""
    objects = []
    for i, (kind, text) in enumerate(records):
        obj = _obj(internal_type_name(kind), "", i < TITLE_PAGE_LINES)
        obj.set_content(text)  # already stripped: set_content keeps it as is
        objects.append(obj)
    objects[_BY_LINE].set_attribute("alignment", "center")
    return objects


def parse_shakespeare_dom(html_text: str) -> List[ScriptObject]:
    """Reference reader: the walk over the full ``parse_html`` tree.
    ``parse_shakespeare_text`` must equal its
    ``(get_type_json(), content)`` projection."""
    root = parse_html(html_text)
    objects: List[ScriptObject] = []

    # --- title page synthesis ---------------------------------------
    title = ""
    head = root.find_first("head")
    if head is not None:
        for child in head.element_children():
            if child.tag == "title":
                content = collapse_blanks_and_newlines(child.text())
                title = content[: len(content) - ENTIRE_PLAY_SUFFIX_LEN]

    def blanks(n: int) -> None:
        for _ in range(n):
            objects.append(_obj("Text", "", True))

    blanks(17)
    objects.append(_obj("Title", title, True))
    blanks(3)
    by = _obj("Text", "By", True)
    by.set_attribute("alignment", "center")
    objects.append(by)
    blanks(2)
    objects.append(_obj("Author", AUTHOR, True))
    blanks(24)

    # --- body walk ----------------------------------------------------
    body = root.find_first("body")
    if body is not None:
        for child in body.element_children():
            if child.tag == "a":
                name = child.get("name")
                content = collapse_blanks_and_newlines(child.text())
                if name is not None and is_prefix(name, "speech"):
                    if objects and objects[-1].type == "Character":
                        # Two characters speaking at once merge: "X & Y"
                        last = objects[-1]
                        last.set_content(last.content + f" & {content}")
                    else:
                        objects.append(_obj("Character", content))
                # non-speech anchors at body level are dropped
            elif child.tag == "blockquote":
                for c2 in child.element_children():
                    if c2.tag == "a":
                        content = collapse_blanks_and_newlines(c2.text())
                        if content == "EPILOGUE":
                            objects.append(_obj("Slugline", content))
                        else:
                            if content[:1] == "[":
                                end = content.find("]")
                                if end != -1:
                                    paren = "(" + content[1:end] + ")"
                                    content = content[end + 1:]
                                    objects.append(_obj("Paren", paren))
                            if content != "":
                                objects.append(_obj("Dialog", content))
                    elif c2.tag == "p":
                        content = collapse_blanks_and_newlines(c2.text())
                        if is_prefix(content, "To ") or content == "Aside":
                            objects.append(_obj("Paren", "(" + content + ")"))
                        else:
                            objects.append(_obj("Action", content))
                    # other blockquote children (bare <i>, <br>, text) dropped
            elif child.tag == "h3":
                content = collapse_blanks_and_newlines(child.text())
                if is_prefix(content, "ACT"):
                    objects.append(_obj("Act", content))
                else:
                    objects.append(_obj("Slugline", content))
            # all other body children (tables/nav/boilerplate) dropped

    return objects
