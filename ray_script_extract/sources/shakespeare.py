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

``parse_shakespeare_text`` is the production reader: one
``htmldom._TOKEN.split`` of the document, read five fields per tag
(end name, start name, attributes, self-close mark, text after), so
no ``re.Match`` is built and no text is sliced.  The pass keeps only a
stack of open tag names and their roles.  Per start tag it runs the
tree builder's implicit closes from a table of what the tag closes,
finds the child's role in a table of its parent's role, and finds the
first ``head`` and ``body`` in a two-entry table it empties as it
goes.  It reads only the ``name`` of a body-level anchor, and decodes
no other attribute.  It closes a matching top element inline, skips a
void or self-closed tag the walk does not read once its implicit
closes have run, collects text only under the elements the walk reads
(joined and collapsed when the element closes), and yields the play
as ``(JSON kind, text)`` records.  ``parse_shakespeare_dom`` is the
walk above over the full ``parse_html`` tree, kept as its test-side
reference (``tests/test_html_play_records.py``).
"""

from __future__ import annotations

import html as _html
from typing import Dict, List, Tuple

from ..engine.objects import ScriptObject, internal_type_name
from ..functions.textutil import (
    collapse_blanks_and_newlines,
    is_prefix,
    strip_color_formatting,
)
from .htmldom import _CLOSED_BY, _TOKEN, VOID_ELEMENTS, attr_value, parse_html

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
# per parent role (the index), tag -> the child's role
_CHILD_ROLES: Tuple[Dict[str, int], ...] = (
    {},  # every other element
    {"title": _TITLE},  # _HEAD
    # _BODY; an "a" is a speech only with a name="speech…" attribute
    {"a": _SPEECH, "h3": _H3, "blockquote": _QUOTE},
    {"a": _LINE, "p": _PARA},  # _QUOTE
) + ({},) * 5  # the collectors
# the first head and the first body, wherever they are, found by tag
_FIRSTS = {"head": _HEAD, "body": _BODY}
# start tag -> the open elements it closes implicitly (_CLOSED_BY read
# the other way round)
_CLOSES = {tag: frozenset(e for e, by in _CLOSED_BY.items() if tag in by)
           for tag in frozenset().union(*_CLOSED_BY.values())}


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
    firsts = dict(_FIRSTS)  # popped as each is seen
    unescape = _html.unescape
    collapse = collapse_blanks_and_newlines

    def close(role: int) -> None:
        """Route the text of a collector that just closed."""
        nonlocal title
        start = starts.pop()
        if starts:  # the enclosing collector keeps the chunks
            content = collapse("".join(chunks[start:]))
        else:
            content = collapse("".join(chunks))
            chunks.clear()
        if role == _TITLE:
            title = content[: len(content) - ENTIRE_PLAY_SUFFIX_LEN]
        else:
            _append_records(records, role, content)

    def unwind(depth: int) -> None:
        """Close the open elements above ``depth``, innermost first."""
        while len(stack) > depth:
            stack.pop()
            role = roles.pop()
            if role >= _TITLE:
                close(role)

    # split yields the text before the first tag, then per tag its four
    # groups and the text after it; no collector is open before a tag
    fields = iter(_TOKEN.split(html_text))
    next(fields)
    for end_name, start_name, attr_raw, self_close, text in zip(
            fields, fields, fields, fields, fields):
        if start_name is not None:
            tag = start_name.lower()
            closes = _CLOSES.get(tag)
            if closes is not None:
                # the root "#document" is never closed
                while stack[-1] in closes:
                    unwind(len(stack) - 1)
            role = _CHILD_ROLES[roles[-1]].get(tag, 0)
            if role == _SPEECH:
                if not (attr_value(attr_raw, "name") or "").startswith(
                        "speech"):
                    role = 0  # non-speech anchors at body level are dropped
            elif not role and firsts:
                role = firsts.pop(tag, 0)
            if self_close or tag in VOID_ELEMENTS:
                if role >= _TITLE:  # closed as soon as opened, with no text
                    starts.append(len(chunks))
                    close(role)
            else:
                stack.append(tag)
                roles.append(role)
                if role >= _TITLE:
                    starts.append(len(chunks))
        elif end_name is not None:
            tag = end_name.lower()
            if tag == stack[-1]:  # the common case: close the top inline
                stack.pop()
                role = roles.pop()
                if role >= _TITLE:
                    close(role)
            elif tag not in VOID_ELEMENTS:
                for i in range(len(stack) - 1, 0, -1):
                    if stack[i] == tag:
                        unwind(i)
                        break
        # comments/doctype/PI: dropped
        if text and starts:
            chunks.append(unescape(text) if "&" in text else text)
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
