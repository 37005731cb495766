"""Output serializers: Fountain text and WD-JSON documents.

Behavioral spec re-derived from the reference's writer
(`/root/reference/src/parser/analyzer/WriteOutput.php:17-148` fountain,
`:150-364` JSON): title block then per-type markup for fountain
(escapes, chr(1..8) formatting-marker conversion to **/*/_, leading
`.` for forced sluglines, `>` for non-matching transitions, `^` dual
marker); for JSON the page-1 objects go to titlePage, `givenPageNum`
is emitted on the first line of each page, dual-dialog column
tracking, and header/footer strings reassembled with LEFT/WIDTH
spacing.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..engine.blocks import get_alignment
from ..engine.objects import ScriptObject
from ..engine.pagexml import DEFAULT_CHAR_WIDTH, INCH
from ..functions.textutil import is_prefix, is_suffix

_SLUGLINE_BEGINNINGS = ("INT", "EXT", "EST", "INT/EXT", "INT./EXT", "I/E")


def matched_as_slug(content: str) -> bool:
    return any(is_prefix(content, p + " ", False) or is_prefix(content, p + ".", False)
               for p in _SLUGLINE_BEGINNINGS)


def matched_as_transition(content: str) -> bool:
    return is_suffix(content, " TO:")


# chr(1)/chr(2)=bold, chr(3)/chr(4)=italic, chr(5)/chr(6)=underline,
# chr(7)/chr(8)=strike (no fountain equivalent)
_FORMAT_STYLES = ("**", "*", "_", "")


def _convert_format_marks(content: str) -> str:
    content = content.replace("\\", "\\\\")
    content = content.replace("*", r"\*")
    content = content.replace("_", r"\_")
    while True:
        old = content
        for num, _style in enumerate(_FORMAT_STYLES):
            left = chr(num * 2 + 1)
            right = chr(num * 2 + 2)
            content = content.replace(left + " ", " " + left)
            content = content.replace(" " + right, right + " ")
            content = content.replace(left + right, "")
            content = content.replace(right + left, "")
        if content == old:
            break
    for num, style in enumerate(_FORMAT_STYLES):
        content = content.replace(chr(num * 2 + 1), style)
        content = content.replace(chr(num * 2 + 2), style)
    return content


def write_fountain(objects: List[ScriptObject]) -> str:
    """Fountain text of ``objects`` (WriteOutput.php:86-124, without the
    FDX-only markers)."""
    body = ""
    title = ""
    author = ""
    for o in objects:
        if o.page_num > 1:
            break
        if title == "" and o.type == "Title":
            title = o.content
        elif author == "" and o.type == "Author":
            author = o.content
    if title.strip() != "":
        body += f"Title: {title}\n"
    if author.strip() != "":
        body += "Credit: By\n"
        body += f"Author: {author}\n"
    if body != "":
        body += "\n\n"

    for o in objects:
        if o.page_num == 1 or o.type == "Page Header":
            continue
        type_ = o.type
        content = _convert_format_marks(o.content)
        upper = content.upper()
        if type_ in ("Text", "Action"):
            if matched_as_transition(content):
                content += " "
            if matched_as_slug(content):
                content = " " + content
            body += "\n" + content
        elif type_ == "Character":
            body += "\n" + upper
            if o.is_dual_line:
                body += "^"
        elif type_ in ("Dialog", "Paren"):
            if content.strip() == "":
                content = "  "
            body += content
        elif type_ in ("Shot", "Act", "Slugline"):
            if ((matched_as_transition(upper) or not matched_as_slug(upper))
                    and upper.strip() != ""):
                upper = "." + upper
            body += "\n" + upper
        elif type_ == "Transition":
            if matched_as_slug(upper) or not matched_as_transition(upper):
                upper = ">" + upper
            body += "\n" + upper
        else:
            body += content
        body += "\n"
    return body


def _grab_header_or_footer(working: List[Dict]) -> Optional[Dict]:
    if not working:
        return None
    working = sorted(working,
                     key=lambda o: int(float(o["attributes"].get("LEFT", 0))))
    first = working[0]["attributes"]
    align = get_alignment(int(float(first.get("LEFT", 0))),
                          int(float(first.get("WIDTH", 0))),
                          1.5 * INCH, 8.5 * INCH)
    last_left = 0
    last_width = 0
    s = ""
    num_spaces = 0
    for x, obj in enumerate(working):
        attrs = obj["attributes"]
        left = int(float(attrs.get("LEFT", 0)))
        width = int(float(attrs.get("WIDTH", 0)))
        if x != 0:
            num_spaces = ((left - last_left) - last_width) // DEFAULT_CHAR_WIDTH
        last_left = left
        last_width = width
        s += " " * max(num_spaces, 0) + obj["value"]
    if s == "":
        return None
    return {"align": align, "text": s}


def write_wd_json(objects: List[ScriptObject],
                  header_objects: Optional[List[List[Dict]]] = None,
                  footer_objects: Optional[List[List[Dict]]] = None,
                  revisions: Optional[List] = None,
                  line_numbers: Optional[Dict] = None,
                  page_size: str = "Letter",
                  scene_continued: Optional[Dict] = None) -> Dict:
    """Build the WD-JSON document dict (caller serializes)."""
    data: Dict = {
        "lines": [],
        "titlePage": {"lines": [], "pageSettings": {"pageSize": page_size}},
        "pageSettings": {"pageSize": page_size},
    }
    sc = scene_continued or {}
    if sc.get("number"):
        data["pageSettings"]["sceneContinuedNumber"] = True
    if sc.get("top"):
        data["pageSettings"]["sceneContinuedTop"] = True
    if sc.get("bottom"):
        data["pageSettings"]["sceneContinuedBottom"] = True
    data["revisions"] = revisions if revisions is not None else []
    data["lineNumbers"] = line_numbers if line_numbers is not None else {}

    last_page_num = -1
    current_column = 0
    is_there_title_page = False
    for o in objects:
        if o.page_num != last_page_num:
            item: Dict = {"type": o.get_type_json(), "text": o.content,
                          "givenPageNum": o.given_page_num}
            last_page_num = o.page_num
        else:
            item = {"type": o.get_type_json(), "text": o.content}
        attributes = {}
        for key, attr in o.attributes.items():
            if isinstance(attr, (dict, list)):
                if attr:
                    attributes[key] = attr
            elif key == "fontSize" and str(attr) == "16":
                pass
            else:
                attributes[key] = attr
        if attributes:
            item["attributes"] = attributes

        if o.type in ("Dialog", "Paren"):
            pass
        elif o.type == "Character":
            current_column = 0
            if o.has_dual_line:
                current_column = 1
            if o.is_dual_line:
                current_column = 2
        else:
            current_column = 0
        if current_column != 0:
            item["column"] = current_column

        if o.page_num > 1:
            data["lines"].append(item)
        else:
            data["titlePage"]["lines"].append(item)
            is_there_title_page = True

    headers = header_objects or []
    footers = footer_objects or []
    n_hf = len(headers)
    start = 0

    def put(value: Optional[Dict], title_page: bool, location: str) -> None:
        if value:
            target = (data["titlePage"]["pageSettings"] if title_page
                      else data["pageSettings"])
            target.setdefault("headersAndFooters", {})[location] = value

    if is_there_title_page and n_hf > 0:
        put(_grab_header_or_footer(headers[start]), True, "page1_header")
        put(_grab_header_or_footer(footers[start] if start < len(footers)
                                   else []), True, "page1_footer")
        n_hf -= 1
        start += 1
    if n_hf > 0:
        put(_grab_header_or_footer(headers[start]), False, "page1_header")
        put(_grab_header_or_footer(footers[start] if start < len(footers)
                                   else []), False, "page1_footer")
    if n_hf > 1:
        put(_grab_header_or_footer(headers[start + 1]), False, "header")
        put(_grab_header_or_footer(footers[start + 1]
                                   if start + 1 < len(footers) else []),
            False, "footer")
    return data


def dumps_wd_json(data: Dict) -> str:
    return json.dumps(data, ensure_ascii=False)
