"""Page line assembly: positioned text fragments → LineObjects.

One assembler, ``assemble_page``, serves both inputs.  Page XML in the
pdftohtml ``-xml`` shape (the ``pdf_page_xml`` input kind) is parsed
with ElementTree by ``process_page_xml`` into typed ``Fragment``
records; the native PDF front-end (``sources.pdfnative``) produces the
same records directly, so raw PDFs never go through XML.

Behavioral spec re-derived from the reference's per-page XML walk
(`/root/reference/src/parser/analyzer/ParseText.php:48-121` (sxiToArray)
and `:266-591` (processPageXmlObject)).  Semantics preserved exactly:

* changebar `*` filter (LEFT>500, trimmed value "*") — :280-284
* line bucketing by TOP with ±4 tolerance, LEFT collision → left+1 — :286-311
* fontspec pt→px via floor(size*4/3), 13–15 px snapped to 16 — :313-333
* CONTINUED scrub at page edges setting per-doc flags — :366-398
* header zone (top ≤ 42): dedupe, docx 10-space split, auto-text drop,
  page-number capture — :400-437
* footer zone (top > pageHeight-50) — :441-449
* blank-line synthesis every 12 px from lastTopOffset (init 72) — :469-475
* left/right scene-number capture (LEFT<65 / >520, len<7) — :492-502
* inter-fragment gap → floor(gap/7) spaces — :515-524
* outer-fragment-only trims shifting x by trimmed*7 — :133-264,536-539
* per-page "\f" sentinel line — :587
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from typing import Dict, Iterable, List, NamedTuple, Optional

from .colors_list import ColorsList

INCH = 72
MAX_OFFSET_SAME_LINE = 4
FONT_CONVERSION_RATE = 4 / 3
DEFAULT_CHAR_WIDTH = 7
BASIC_LINE_HEIGHT = 12

AUTO_HEADER_FOOTER_TEXT = (
    "Created using Celtx",
    "Written with Arc Studio: www.arcstudiopro.com",
    "(Printed with the demonstration version of Fade In)",
)

# ASCII whitespace per PCRE \s (no Unicode property flag) plus NUL:
# the reference's custom ltrim/rtrim set
_TRIM = " \t\n\r\f\x0b\x00"
_CONTINUED_TOP = re.compile(r"^CONTINUED:$")
_CONTINUED_TOP_NUM = re.compile(r"^CONTINUED: ?(?:\(\d+\))?$")
_CONTINUED_BOTTOM = re.compile(r"^\(CONTINUED\)$")
_GIVEN_PAGE_NUM = re.compile(
    r"^\d+[a-zA-Z. ]?[a-zA-Z. ]?[a-zA-Z. ]?[a-zA-Z. ]?$")

_PHP_TRIM = " \t\n\r\x00\x0b"
_NBS_RTRIM = " \n\r\t\x0b\x00 "


class LineObject:
    __slots__ = ("text", "x", "width", "given_page_num", "line_colors",
                 "line_font_size", "line_text_attributes", "line_number_object")

    def __init__(self, text: str, x: int, width: int, given_page_num,
                 line_colors: Dict, line_font_size, line_text_attributes: Dict,
                 line_number_object: Dict) -> None:
        self.text = text
        self.x = x
        self.width = width
        self.given_page_num = given_page_num
        self.line_colors = line_colors
        self.line_font_size = line_font_size
        self.line_text_attributes = line_text_attributes
        self.line_number_object = line_number_object

    def __repr__(self) -> str:  # debug only
        return f"<Line x={self.x} {self.text[:40]!r}>"


class DocState:
    """Per-document fold state threaded through all pages."""

    def __init__(self) -> None:
        self.fonts: Dict[str, Dict] = {}
        self.colors: Optional[ColorsList] = None
        self.line_objects: List[LineObject] = []
        self.header_objects: List[List[Dict]] = []
        self.footer_objects: List[List[Dict]] = []
        self.dirty_internal_page_num = 0
        self.scene_continued_top = False
        self.scene_continued_bottom = False
        self.scene_continued_number = False
        self.page_size = "Letter"


class Fragment(NamedTuple):
    """One positioned text run, typed: what the line assembler reads
    from a ``<text>`` element.  Positions are integer pixels;
    ``text_attrs`` maps a style child tag (``b``/``i``) to its
    ``{start, end}`` char ranges (ParseText.php:70-95).  ``attributes``
    holds a parsed element's own upper-cased attribute strings; the
    native PDF front-end leaves it None."""

    top: int
    left: int
    width: int
    height: int
    font: str
    value: str
    text_attrs: Optional[Dict[str, List[Dict]]] = None
    attributes: Optional[Dict[str, str]] = None

    def node(self) -> Dict:
        """The reference's dict shape (tag / attributes / value /
        textAttributes), kept for header and footer capture."""
        attrs = self.attributes
        if attrs is None:
            attrs = {"TOP": str(self.top), "LEFT": str(self.left),
                     "WIDTH": str(self.width), "HEIGHT": str(self.height),
                     "FONT": self.font}
        node = {"tag": "TEXT", "attributes": attrs, "value": self.value}
        if self.text_attrs:
            node["textAttributes"] = self.text_attrs
        return node


def _xml_fragment(elem: ET.Element) -> Fragment:
    """A parsed ``<text>`` element as a Fragment: char ranges come
    from its element children only, so a nested ``<b><i>`` keeps just
    the outer ``b`` range, as in the reference's sxiToArray."""
    attrs = {k.upper(): v for k, v in elem.attrib.items()}
    text_attrs: Optional[Dict[str, List[Dict]]] = None
    if len(elem):
        text_attrs = {}
        handled = len(elem.text or "")
        for child in elem:
            clen = len("".join(child.itertext()))
            text_attrs.setdefault(child.tag, []).append(
                {"start": handled, "end": handled + clen - 1})
            handled += clen + len(child.tail or "")
    return Fragment(int(float(attrs.get("TOP", 0))),
                    int(float(attrs.get("LEFT", 0))),
                    int(float(attrs.get("WIDTH", 0))),
                    int(float(attrs.get("HEIGHT", 0))),
                    attrs.get("FONT", ""), "".join(elem.itertext()),
                    text_attrs, attrs)


def _line_object_compare(o1: Optional[Dict], o2: Optional[Dict]) -> bool:
    if not o1 or not o2:
        return False
    a1, a2 = o1["attributes"], o2["attributes"]
    return (o1["tag"] == o2["tag"] and o1["value"] == o2["value"]
            and a1.get("TOP") == a2.get("TOP")
            and a1.get("LEFT") == a2.get("LEFT")
            and a1.get("WIDTH") == a2.get("WIDTH")
            and a1.get("HEIGHT") == a2.get("HEIGHT")
            and a1.get("FONT") == a2.get("FONT"))


def process_page_xml(page_xml: str, state: DocState) -> None:
    """Parse one ``<page>`` element and feed it to ``assemble_page``."""
    page = ET.fromstring(page_xml)
    page_node_attrs = {k.upper(): v for k, v in page.attrib.items()}
    page_height = int(float(page_node_attrs.get("HEIGHT", 792)))
    fontspecs: List[Dict] = []
    fragments: List[Fragment] = []
    for elem in page:
        tag = elem.tag.upper()
        if tag == "TEXT":
            fragments.append(_xml_fragment(elem))
        elif tag == "FONTSPEC":
            fontspecs.append({k.upper(): v for k, v in elem.attrib.items()})
    assemble_page(page_height, fontspecs, fragments, state)


def assemble_page(page_height: int, fontspecs: List[Dict],
                  fragments: Iterable[Fragment], state: DocState) -> None:
    """Assemble one page's fragments into LineObjects, appending them
    (+ the final "\f" sentinel) and the header/footer capture to the
    document state.  ``fontspecs`` are attribute dicts with upper-case
    keys (ID, SIZE in points, FAMILY, COLOR); they are not modified."""
    state.page_size = "A4" if page_height > 800 else "Letter"

    font_objects_local: List[Dict] = []
    for spec in fontspecs:
        attrs = dict(spec)
        px = math.floor(float(attrs.get("SIZE", 12)) * FONT_CONVERSION_RATE)
        if 13 <= px < 16:
            # Microsoft-Print-to-PDF font-size snap
            px = 16
        attrs["SIZE"] = px
        font_objects_local.append(attrs)
        state.fonts[attrs.get("ID", "")] = attrs
    if state.colors is None:
        state.colors = ColorsList(font_objects_local)
    elif font_objects_local:
        state.colors.add_colors(font_objects_local)
    colors = state.colors

    lines_in_page: Dict[int, Dict[int, Fragment]] = {}
    for frag in fragments:
        left = frag.left
        if left > 500 and frag.value.strip(_PHP_TRIM) == "*":
            continue  # changebar asterisks
        top = frag.top
        for candidate in range(top - MAX_OFFSET_SAME_LINE,
                               top + MAX_OFFSET_SAME_LINE + 1):
            if candidate in lines_in_page:
                top = candidate
                break
        bucket = lines_in_page.setdefault(top, {})
        while left in bucket:
            left += 1
        bucket[left] = frag

    last_top_offset = 72  # default top padding
    given_page_num = ""
    header_objects: List[Dict] = []
    footer_objects: List[Dict] = []
    fonts_in_page: Dict[int, int] = {}

    for top in sorted(lines_in_page.keys()):
        line_objects = lines_in_page[top]

        if top <= INCH // 2 + 14:
            for key in list(line_objects.keys()):
                v = line_objects[key].value.strip(_PHP_TRIM)
                if _CONTINUED_TOP.match(v):
                    state.scene_continued_top = True
                    del line_objects[key]
                elif _CONTINUED_TOP_NUM.match(v):
                    state.scene_continued_top = True
                    state.scene_continued_number = True
                    del line_objects[key]
        if top > page_height - INCH // 2 - 29:
            for key in list(line_objects.keys()):
                v = line_objects[key].value.strip(_PHP_TRIM)
                if _CONTINUED_BOTTOM.match(v):
                    state.scene_continued_bottom = True
                    del line_objects[key]

        if top <= INCH // 2 + 6:
            prev_obj: Optional[Dict] = None
            work = [frag.node() for frag in line_objects.values()]
            idx = 0
            while idx < len(work):
                obj = dict(work[idx])  # the reference mutates a COPY
                non_duplicate = not _line_object_compare(prev_obj, work[idx])
                prev_obj = work[idx]
                if non_duplicate:
                    obj["value"] = obj["value"].strip(_PHP_TRIM)
                    if "          " in obj["value"]:
                        first, second = obj["value"].split("          ", 1)
                        obj["value"] = first.strip(_PHP_TRIM)
                        copy = dict(obj)
                        copy["value"] = second.strip(_PHP_TRIM)
                        work.append(copy)
                    if obj["value"] not in AUTO_HEADER_FOOTER_TEXT:
                        m = _GIVEN_PAGE_NUM.match(obj["value"])
                        if m:
                            given_page_num = m.group(0).rstrip(". ")
                        else:
                            header_objects.append(obj)
                idx += 1
        elif top > page_height - INCH // 2 - 14:
            for frag in line_objects.values():
                if frag.value.strip(_PHP_TRIM) not in AUTO_HEADER_FOOTER_TEXT:
                    footer_objects.append(frag.node())
        else:
            spacing_top = last_top_offset
            while spacing_top <= top - BASIC_LINE_HEIGHT + MAX_OFFSET_SAME_LINE:
                state.line_objects.append(
                    LineObject("", 0, 0, given_page_num, {}, 16, {}, {}))
                spacing_top += BASIC_LINE_HEIGHT
            last_top_offset = _assemble_line(
                [line_objects[k] for k in sorted(line_objects)], top,
                last_top_offset, given_page_num, colors, state,
                fonts_in_page)

    header_objects.sort(key=lambda o: int(float(o["attributes"].get("LEFT", 0))))
    if header_objects:
        possible_name = header_objects[0]["value"]
        colors.update_ids_with_name(list(fonts_in_page.keys()), possible_name,
                                    state.dirty_internal_page_num)
        colors.set_header_name_by_page_num(state.dirty_internal_page_num,
                                           possible_name)
    state.dirty_internal_page_num += 1
    state.line_objects.append(
        LineObject("\f", 0, 0, given_page_num, {}, 16, {}, {}))
    state.header_objects.append(header_objects)
    state.footer_objects.append(footer_objects)


def _assemble_line(frags: List[Fragment], top: int, last_top_offset: int,
                   given_page_num, colors: ColorsList, state: DocState,
                   fonts_in_page: Dict[int, int]) -> int:
    """Join one body line's fragments (sorted by left) into a
    LineObject; returns the updated lastTopOffset (:477-585)."""
    # only the outermost non-blank fragments get trimmed (:133-264)
    nonblank = [i for i, frag in enumerate(frags) if frag.value.strip(_TRIM)]
    trim_left_upto = nonblank[0] if nonblank else len(frags)
    trim_right_from = nonblank[-1] if nonblank else 0

    line_content = ""
    line_colors: Dict[int, List[Dict]] = {}
    line_text_attributes: Dict[str, List[Dict]] = {}
    left = 1000000
    right = 0
    line_font_size = 0
    line_number_object: Dict = {}
    last_obj_right = 0
    for i, frag in enumerate(frags):
        value = frag.value
        text = value.rstrip(_NBS_RTRIM)
        obj_left = frag.left
        obj_right = obj_left + frag.width
        if text != "" and obj_left < 65 and len(text) < 7:
            line_number_object["number"] = text
            line_number_object["left"] = 1
            continue
        if text != "" and obj_left > 520 and len(text) < 7:
            line_number_object["number"] = text
            line_number_object["right"] = 1
            continue
        font_id = frag.font
        color_id = colors.get_color_id(font_id)
        text_length_before = len(line_content)
        font_size_px = state.fonts.get(font_id, {}).get("SIZE", 16)
        if text != "" or line_font_size == 0:
            line_font_size = max(
                line_font_size if line_content != "" else 0,
                font_size_px if text != "" else min(
                    math.floor(BASIC_LINE_HEIGHT * FONT_CONVERSION_RATE),
                    font_size_px))
        if text != "" and line_content != "" and last_obj_right != 0:
            n_spaces = math.floor(
                (obj_left - last_obj_right) / DEFAULT_CHAR_WIDTH)
            if n_spaces > 0:
                line_content += " " * n_spaces
        prior_line_content = line_content
        left_trimmed = right_trimmed = 0
        if i <= trim_left_upto:
            trimmed = value.lstrip(_TRIM)
            left_trimmed = len(value) - len(trimmed)
            value = trimmed
        if i >= trim_right_from:
            trimmed = value.rstrip(_TRIM)
            right_trimmed = len(value) - len(trimmed)
            value = trimmed
        if value != "":
            if frag.text_attrs:
                base = len(line_content)
                for attr, entries in frag.text_attrs.items():
                    for entry in entries:
                        if entry["end"] < left_trimmed:
                            continue
                        if entry["start"] >= len(value) + left_trimmed:
                            continue
                        line_text_attributes.setdefault(attr, []).append({
                            "start": max(entry["start"] - left_trimmed, 0)
                            + base,
                            "end": min(entry["end"] - left_trimmed,
                                       len(value) - 1) + base})
            line_content += value
        obj_left += left_trimmed * DEFAULT_CHAR_WIDTH
        obj_right -= right_trimmed * DEFAULT_CHAR_WIDTH
        if not colors.special_case(color_id):
            line_colors.setdefault(color_id, []).append(
                {"start": text_length_before, "end": len(line_content)})
        last_top_offset = max(
            last_top_offset,
            top + (frag.height if text != ""
                   else min(BASIC_LINE_HEIGHT, frag.height)))
        if prior_line_content == "":
            left = obj_left
            right = obj_right
        elif value != "":
            left = min(left, obj_left)
            right = max(right, obj_right)
        fonts_in_page[color_id] = fonts_in_page.get(color_id, 0) + 1
        last_obj_right = obj_right
    state.line_objects.append(
        LineObject(line_content, left, right - left, given_page_num,
                   line_colors, line_font_size, line_text_attributes,
                   line_number_object))
    return last_top_offset
