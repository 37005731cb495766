"""Text_Parser: the sequential per-document page fold.

Behavioral spec re-derived from the reference's parse_page pipeline
(`/root/reference/src/parser/analyzer/ParseText.php:1007-1793`):
tab/CONT'D normalization and the block-piece split on ≥12-space runs
(one loop) → title-page detection → vertical block merge → content
classification → indent inference → reclassification passes →
dual-dialog reconstruction → Unknown/Action finalization →
margin-blank removal → output items, with the cross-page Dialog merge
at the end.  See blocks.py for the quirk inventory.

A document's output is a ``Script``: one item per output, made from
the final blocks by ``_block_items`` (``_fly_page_items`` for a title
page).  The extract path reads its ``(kind, text, page)`` records and
builds no ScriptObject; ``cli convert`` and the revision pass read its
ScriptObjects, which each item's builder makes from the same blocks.
"""

from __future__ import annotations

import re
from bisect import insort
from collections.abc import Sequence
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..functions.looks_like import (
    looks_like_character,
    looks_like_scene_number,
    looks_like_series_or_montage_slugline,
    looks_like_slugline,
)
from ..functions.textutil import (compress_spaces, is_uppercase,
                                  strip_color_formatting)
from .blocks import (
    _DIGITS,
    Block,
    BlockPiece,
    SeriesTimer,
    get_alignment,
    get_likely_indents,
    kind_counts,
    maybe_merge_across_intersentence_spaces,
    nextgen_compute_indents,
    prevgen_compute_indents,
    white_out,
)
from .objects import VALID_TYPES, ScriptObject, json_type_name
from .pagexml import (DEFAULT_CHAR_WIDTH, INCH, DocState, LineObject,
                      assemble_page, process_page_xml)

_NBS_RTRIM = " \n\r\t\x0b\x00\u00a0"
_PHP_TRIM = " \t\n\r\x00\x0b"
_FULL_TRIM = " \t\n\r\f\x0b\x00"
_NON_SPACE = re.compile("[^ ]")
_BY_ALONE = re.compile(r"(^| )[Bb][Yy]$")
_BY_PREFIX = re.compile(r"(^| )[Bb][Yy] ")

_TWELVE_SPACES = " " * 12
# looks_like_series_or_montage_slugline's patterns
_SERIES_PREFIXES = ("SERIES OF SHOTS", "MONTAGE")

LINES_BEFORE_TYPE = {"Action": 1, "Character": 1, "Transition": 1,
                     "Slugline": 2, "Shot": 2}
FULL_WIDTH_LINE_TYPES = ("Action", "Slugline", "Text", "Shot")


def split_attribute(attributes: Dict, left_incl: int, right_excl: int) -> Dict:
    out: Dict = {}
    for attr_id, entries in attributes.items():
        for entry in entries:
            if entry["end"] >= left_incl and entry["start"] < right_excl:
                out.setdefault(attr_id, []).append({
                    "start": max(entry["start"], left_incl) - left_incl,
                    "end": min(entry["end"], right_excl) - left_incl,
                })
    return out


def _expand_tabs(text: str) -> str:
    """Each tab to the next multiple-of-8 column, counted from the
    start of the string even across line breaks."""
    while True:
        i = text.find("\t")
        if i == -1:
            return text
        text = text[:i] + "        "[i % 8:] + text[i + 1:]


def _block_ranges(block: Block, kind: str, obj: ScriptObject):
    """The block's ranges, and the alignment attribute: it too is read
    only by the writers."""
    if kind in FULL_WIDTH_LINE_TYPES:
        alignment = get_alignment(block.x, block.width, 1.5 * INCH, 8.5 * INCH)
        if alignment != "left":
            obj.set_attribute("alignment", alignment)
    elif kind == "Transition":
        alignment = get_alignment(block.x, block.width, 1.5 * INCH, 8.5 * INCH)
        if alignment != "right":
            obj.set_attribute("alignment", alignment)
    return block.ranges()


def _dialog_ranges(block: Block, obj: ScriptObject):
    """A Dialog's ranges re-sliced from offset 0 to its content length.

    The reference's maybe_break_up_last_dialog has its splitting loop
    disabled (if (FALSE), ParseText.php:2624), so its net effect is to
    replace each new Dialog with a fresh copy: num_lines and the dual
    flags reset, an empty one dropped, and the ranges re-sliced here."""
    colors, attrs = block.ranges()
    n = len(obj.content)
    return split_attribute(colors, 0, n), split_attribute(attrs, 0, n)


def _merged_ranges(prev: ScriptObject, nxt: ScriptObject, offset: int,
                   obj: ScriptObject):
    return (prev.merged_ranges(prev.colors, nxt.colors, offset),
            prev.merged_ranges(prev.attributes.get("textAttributes", {}),
                               nxt.attributes.get("textAttributes", {}),
                               offset))


def _content(text: str) -> str:
    """A PDF ScriptObject's ``content`` for ``text``."""
    return compress_spaces(strip_color_formatting(text), True)


# -- one document output per item ---------------------------------------
# The block engine's output is a list of items, one per ScriptObject:
# ``(type, content, page, page_num, given_page_num, build, source)``.
# ``page`` is the physical page the output's first line sits on;
# ``page_num`` is the reference's page count, which adds one for a
# missing title page.  The extract path reads the first three fields;
# ``build(item)`` makes the ScriptObject from ``source`` for the writers.

def _block_object(item) -> ScriptObject:
    kind, content, _, page_num, given_page_num, _, block = item
    o = ScriptObject(kind, content, page_num, given_page_num, None,
                     block.font_size, None, block.number_object,
                     pdf_path=True,
                     ranges=(partial(_dialog_ranges, block)
                             if kind == "Dialog"
                             else partial(_block_ranges, block, kind)))
    if kind != "Dialog":
        o.num_lines = block.height
        o.is_dual_line = block.is_dual_line
        o.has_dual_line = block.has_dual_line
    return o


def _contact_line_object(item) -> ScriptObject:
    """One line of a Contact Info block, as Text."""
    block, x = item[6]
    return ScriptObject("Text", item[1], item[3], item[4], block.colors[x],
                        block.font_size, block.text_attributes[x],
                        block.number_object, pdf_path=True)


def _fly_object(item) -> ScriptObject:
    """A title-page output: ``source`` is (colors, font size, text
    attributes, number object, (x, width) for the alignment or None)."""
    colors, font_size, text_attributes, number_object, span = item[6]
    o = ScriptObject(item[0], item[1], item[3], item[4], colors, font_size,
                     text_attributes, number_object, pdf_path=True)
    if span is not None:
        alignment = get_alignment(span[0], span[1], 1 * INCH, 8.5 * INCH)
        if alignment != "left":
            o.set_attribute("alignment", alignment)
    return o


def _merged_object(item) -> ScriptObject:
    """A Dialog carried across a page break: ``source`` is the two
    items it joins."""
    prev, nxt = (i[5](i) for i in item[6])
    return ScriptObject(
        "Dialog", item[1], item[3], item[4], None,
        max(prev.get_font_size(), nxt.get_font_size()), None,
        prev.get_number_object(), pdf_path=True,
        ranges=partial(_merged_ranges, prev, nxt, len(prev.content) + 1))


def _block_items(blocks: List[Block], page: int, page_num: int,
                 given_page_num) -> list:
    """A page's final blocks → its output items: a Horizontal Rule is
    Text, a Contact Info block one Text per line, and an empty Dialog
    nothing.  The extract path's records and the writers'
    ScriptObjects both come from these items."""
    items = []
    add = items.append
    for block in blocks:
        kind = block.kind
        if kind == "Contact Info":
            for x, line in enumerate(block.lines):
                add(("Text", _content(line), page, page_num, given_page_num,
                     _contact_line_object, (block, x)))
            continue
        if kind not in VALID_TYPES:  # a Horizontal Rule among them
            kind = "Text"
        content = _content(block.text())
        if content or kind != "Dialog":
            add((kind, content, page, page_num, given_page_num,
                 _block_object, block))
    return items


def _fly_page_items(pieces: list, page: int, page_num: int,
                    given_page_num) -> list:
    """The title page's items: one Text per piece with a font size,
    then Title/Author by content (classify_fly_page_objects)."""
    items = [["Text", _content(text.strip(_PHP_TRIM)), page, page_num,
              given_page_num, _fly_object,
              (colors, font_size, attrs, number_object, (x, width))]
             for text, x, _, width, colors, font_size, attrs, number_object
             in pieces if font_size != 0]
    found_title = False
    found_author = False
    next_is_author = False
    possible_author_index = -1
    i = 0
    while i < len(items):
        text = items[i][1]
        if text == "":
            i += 1
            continue
        if next_is_author:
            items[i][0] = "Author"
            found_author = True
            next_is_author = False
        if not found_title:
            items[i][0] = "Title"
            found_title = True
            i += 1
            continue
        if possible_author_index == -1:
            possible_author_index = i
        if not found_author:
            if _BY_ALONE.search(text):
                next_is_author = True
            elif _BY_PREFIX.search(text):
                # the split halves keep no alignment
                by_pos = text.lower().find("by ")
                old = items[i]
                colors, font_size, attrs, number_object, _ = old[6]
                items[i] = [old[0], _content(text[:by_pos + 2]), page,
                            page_num, given_page_num, _fly_object,
                            (split_attribute(colors, 0, by_pos + 2),
                             font_size,
                             split_attribute(attrs, 0, by_pos + 2),
                             number_object, None)]
                items.insert(i + 1, [
                    "Author", _content(text[by_pos + 3:]), page, page_num,
                    given_page_num, _fly_object,
                    (split_attribute(colors, by_pos + 3, len(text)),
                     font_size,
                     split_attribute(attrs, by_pos + 3, len(text)), {},
                     None)])
                found_author = True
        i += 1
    if not found_author and possible_author_index != -1:
        items[possible_author_index][0] = "Author"
    return [tuple(item) for item in items]


class Script(Sequence):
    """One document's block-engine output.

    ``records()`` is what the extract path reads: ``(JSON type name,
    content, physical page)`` per output, built from no ScriptObject.
    As a sequence it holds the ScriptObjects, built from the same items
    on first access, for the writers and the revision pass."""

    __slots__ = ("items", "_objects")

    def __init__(self, items: list) -> None:
        self.items = items
        self._objects: Optional[List[ScriptObject]] = None

    def records(self) -> List[Tuple[str, str, int]]:
        return [(json_type_name(item[0]), item[1], item[2])
                for item in self.items]

    def objects(self) -> List[ScriptObject]:
        if self._objects is None:
            self._objects = [item[5](item) for item in self.items]
        return self._objects

    def __getitem__(self, index):
        return self.objects()[index]

    def __iter__(self):
        return iter(self.objects())

    def __len__(self) -> int:
        return len(self.items)


class TextParser:
    def __init__(self, colors) -> None:
        self.items: list = []
        self.num_pages = 0
        self.page = 0
        self.given_page_num = ""
        self.colors = colors
        self._timer = SeriesTimer()

    # ------------------------------------------------------------------
    def parse_page(self, line_objects: List[LineObject],
                   look_for_fly_page: bool, given_page_num) -> None:
        # static $last_page_block_kind is never updated in the
        # reference (the update is inside `if (false)`) → always "Blank"
        last_page_block_kind = "Blank"
        self.num_pages += 1
        self.page += 1
        self.given_page_num = given_page_num

        # --- normalize each line and split it into block pieces ------
        # A piece is a BlockPiece-shaped tuple.  Lines split on runs of
        # 12+ spaces; a normalized line has no edge blanks, so its
        # first piece starts at 0.  Only the length of the reference's
        # $page_text is ever read.
        pieces: list = []
        add_piece = pieces.append
        page_text_len = 0
        num_lines_with_text = 0
        for lx, lo in enumerate(line_objects):
            text = lo.text
            if text:
                text = text.rstrip(_NBS_RTRIM)
                if "\t" in text:
                    text = _expand_tabs(text)
                text = white_out(text).strip(_FULL_TRIM)
            if not text:
                add_piece(("", lo.x, lx, 0, lo.line_colors,
                           lo.line_font_size, lo.line_text_attributes,
                           lo.line_number_object))
                continue
            i = 0
            while True:
                end = text.find(_TWELVE_SPACES, i)
                s = text[i:] if end == -1 else text[i:end]
                page_text_len += len(s) + 1
                num_lines_with_text += 1
                trim_x = i * DEFAULT_CHAR_WIDTH
                add_piece((s.strip(_PHP_TRIM), lo.x + trim_x, lx,
                           lo.width - trim_x, lo.line_colors,
                           lo.line_font_size, lo.line_text_attributes,
                           lo.line_number_object))
                if end == -1:
                    break
                m = _NON_SPACE.search(text, end)
                if m is None:
                    break
                i = m.start()

        # --- title page? ---------------------------------------------
        if (look_for_fly_page and not self.items
                and num_lines_with_text < 30 and page_text_len < 300):
            self.items = _fly_page_items(pieces, self.page, self.num_pages,
                                         given_page_num)
            return
        elif not self.items:
            self.num_pages += 1  # fake title page

        # --- combine pieces into blocks ------------------------------
        # The reference scans the last 20 blocks calling should_combine
        # on each (ParseText.php:1159-1167).  A block whose last line
        # isn't the line right above the piece returns False before ANY
        # side-effecting SERIES_TIMER evaluation, so scanning only the
        # blocks the line above ended (``above``, in block order) is
        # semantics-preserving and skips the dead calls (most of the
        # scan on real pages).
        # A blank piece never combines (should_combine wants text) and
        # a blank block never takes a piece, so neither is looked up.
        blocks: List[Block] = []
        above: List[int] = []
        here: List[int] = []
        line = 0
        timer = self._timer
        for piece in pieces:
            if piece[2] != line:
                above = here if piece[2] == line + 1 else []
                line = piece[2]
                here = []
            text = piece[0]
            if text:
                if timer.value or text.startswith(_SERIES_PREFIXES):
                    if looks_like_slugline(text):
                        timer.value = 0
                        if looks_like_series_or_montage_slugline(text):
                            timer.value = 20
                window_start = len(blocks) - 20
                for ax in above:
                    if ax < window_start:
                        continue
                    block = blocks[ax]
                    if block.should_combine(piece, timer):
                        above.remove(ax)
                        block.combine(piece)
                        insort(here, ax)
                        break
                else:
                    here.append(len(blocks))
                    blocks.append(Block(piece))
            else:
                blocks.append(Block(piece))

        maybe_merge_across_intersentence_spaces(blocks)

        # --- classify based on content -------------------------------
        for bx, block in enumerate(blocks):
            if block.height == 1 and block.lines[0] == "":
                block.kind = "Text"  # blank
                continue
            prev_kind = blocks[bx - 1].kind if bx > 0 else last_page_block_kind
            if prev_kind == "Page Number":
                prev_kind = blocks[bx - 2].kind if bx > 1 else last_page_block_kind
            block.classify_based_on_content(prev_kind, bx)

        # --- likely indent per kind ----------------------------------
        counts, scene_numbers = kind_counts(blocks)
        likely_indent_for = nextgen_compute_indents(counts, scene_numbers)
        if likely_indent_for is False:
            likely_indent_for = prevgen_compute_indents(counts)

        if ("Character" in likely_indent_for and "Dialog" in likely_indent_for
                and likely_indent_for["Dialog"] == 0):
            if likely_indent_for.get("Action") == 0:
                del likely_indent_for["Action"]
            if likely_indent_for.get("Slugline") == 0:
                del likely_indent_for["Slugline"]

        # --- reclassify using indents --------------------------------
        indents = [(v, likely_indent_for[v]) for v in
                   ("Character", "Dialog", "Slugline", "Action", "Transition")
                   if v in likely_indent_for]
        near: Dict[int, List[str]] = {}  # x → the kinds indented there
        for ax, block in enumerate(blocks):
            if block.classification_is_unsure:
                maybe_kinds = near.get(block.x)
                if maybe_kinds is None:
                    maybe_kinds = near[block.x] = [
                        v for v, x in indents if abs(block.x - x) <= 3]
                block.reclassify_using_indent(maybe_kinds)
            if (block.classification_is_unsure
                    and (block.x > 600
                         or (block.x > 400 and block.x + block.width > 700))
                    and block.is_uppercase_single_line()):
                block.kind = "Transition"
            if (ax > 20 and blocks[ax - 1].classification_is_unsure
                    and blocks[ax - 1].is_uppercase_single_line()
                    and block.is_transition_follower()):
                blocks[ax - 1].kind = "Transition"

        # --- Unknown at modal indent → Slugline/Action ---------------
        likely2 = get_likely_indents(
            blocks, ("Character", "Dialog", "Slugline", "Action", "Unknown"))
        if (likely2["Action"] is False and likely2["Slugline"] is False
                and likely2["Character"] is not False
                and likely2["Dialog"] is not False
                and likely2["Unknown"] is not False):
            for block in blocks:
                if (block.classification_is_unsure
                        and block.x == likely2["Unknown"]):
                    block.kind = ("Slugline" if is_uppercase(block.lines[0])
                                  else "Action")
                    block.classification_is_unsure = True

        # --- Dialog-after-slug demotion ------------------------------
        for ax, block in enumerate(blocks):
            if block.kind != "Dialog":
                continue
            for px in range(ax - 1, -1, -1):
                prev_kind = blocks[px].kind
                if prev_kind in ("Character", "Paren"):
                    break
                if (prev_kind == "Action" and px - 1 >= 0
                        and blocks[px - 1].kind in ("Character", "Dialog", "Paren")
                        and ax + 1 < len(blocks)
                        and blocks[ax + 1].kind == "Character"):
                    block.classification_is_unsure = False
                    break
                if prev_kind in ("Slugline", "Transition", "Action"):
                    action_indent = likely2["Action"]
                    # PHP loose ==: x == FALSE is true when x == 0
                    matches = (block.x == 0 if action_indent is False
                               else block.x == action_indent)
                    block.kind = "Action" if matches else "Unknown"
                    break

        # --- Scene Number detection ----------------------------------
        for ax, block in enumerate(blocks):
            line = block.lines[0]
            if (block.height == 1 and line[:1] in _DIGITS
                    and looks_like_scene_number(line)):
                prev = blocks[ax - 1] if ax - 1 >= 0 else None
                nxt = blocks[ax + 1] if ax + 1 < len(blocks) else None
                if ((prev is not None and prev.y == block.y
                     and prev.kind == "Slugline")
                        or (nxt is not None and nxt.y == block.y
                            and nxt.kind == "Slugline")):
                    block.kind = "Scene Number"
                    block.classification_is_unsure = False

        # --- decoration removal --------------------------------------
        keep = [True] * len(blocks)
        for ax, block in enumerate(blocks):
            if not keep[ax]:
                continue
            if block.kind == "Scene Number":
                keep[ax] = False
            elif block.kind == "Page Number":
                keep[ax] = False
                if ax - 1 >= 0 and blocks[ax - 1].kind == "Horizontal Rule":
                    keep[ax - 1] = False
                if ax + 1 < len(blocks) and blocks[ax + 1].kind == "Horizontal Rule":
                    keep[ax + 1] = False
            elif block.kind == "Changebar":
                keep[ax] = False
        if not all(keep):
            blocks = [b for ax, b in enumerate(blocks) if keep[ax]]

        # --- first-Dialog misclassification fix ----------------------
        first_dialog_misclassified = False
        for num, block in enumerate(blocks):
            if num == 0:
                if block.kind == "Dialog":
                    first_dialog_misclassified = True
                    continue
                else:
                    first_dialog_misclassified = False
                    break
            elif block.kind in ("Dialog", "Action", "Slugline"):
                first_dialog_misclassified = False
                break
        if first_dialog_misclassified:
            block = blocks[0]
            is_slug = block.height == 1 and looks_like_slugline(block.lines[0])
            block.kind = "Slugline" if is_slug else "Action"

        # --- orphan Character fix ------------------------------------
        previous_character: Optional[Block] = None
        for block in blocks:
            if block.kind == "Character":
                if previous_character is not None:
                    is_slug = (previous_character.height == 1
                               and looks_like_slugline(previous_character.lines[0]))
                    previous_character.kind = "Slugline" if is_slug else "Action"
                previous_character = block
            elif block.kind in ("Dialog", "Paren"):
                previous_character = None
        if previous_character is not None:
            is_slug = (previous_character.height == 1
                       and looks_like_slugline(previous_character.lines[0]))
            previous_character.kind = "Slugline" if is_slug else "Action"

        # --- dual-dialog reconstruction ------------------------------
        self._reconstruct_dual_dialog(blocks)

        # --- Unknown → final kind, Action → Text/Shot ----------------
        # One pass: an Unknown's rule reads the previous block's kind
        # only for Character/Dialog/Paren, which the Action rule never
        # sets or clears.  No block's lines change from here on.
        blank: List[bool] = []
        for block_index, block in enumerate(blocks):
            kind = block.kind
            if kind == "Unknown":
                kind = "Action"
                if block_index > 0 and not blank[-1]:
                    if blocks[block_index - 1].kind in ("Character", "Dialog",
                                                        "Paren"):
                        kind = "Dialog"
                    else:
                        kind = "Text"
                block.kind = kind
            if kind == "Action" and block_index > 0:
                if not blank[-1]:
                    block.kind = "Text"
                elif (block_index >= 2 and blank[-2]
                      and block.is_uppercase_single_line()):
                    block.kind = "Shot"
            blank.append(block.height == 1 and block.lines[0] == "")

        # --- margin-blank removal ------------------------------------
        # of each run of blanks, the first ones up to the margin the
        # next block's kind wants go
        kept: List[Block] = []
        seen_real_line = False
        num_blocks = len(blocks)
        i = 0
        while i < num_blocks:
            if blank[i]:
                j = i + 1
                while j < num_blocks and blank[j]:
                    j += 1
                num_blanks = j - i
                margin_num_blanks = (num_blanks if j == num_blocks
                                     else LINES_BEFORE_TYPE.get(blocks[j].kind, 0))
                num_blanks_to_remove = min(num_blanks, margin_num_blanks)
                if not seen_real_line and margin_num_blanks > 0:
                    if num_blanks_to_remove == num_blanks:
                        num_blanks_to_remove -= 1
                kept += blocks[i + num_blanks_to_remove:j]
                i = j
            else:
                seen_real_line = True
                kept.append(blocks[i])
                i += 1

        # --- blocks → output items -----------------------------------
        items = _block_items(kept, self.page, self.num_pages,
                             given_page_num)

        # --- cross-page Dialog merge ---------------------------------
        # the merged output sits on the page of its first line
        if (self.items and items and self.items[-1][0] == "Dialog"
                and items[0][0] == "Dialog"):
            prev = self.items[-1]
            nxt = items[0]
            self.items[-1] = (
                "Dialog", _content(prev[1] + " " + nxt[1]), prev[2],
                self.num_pages, given_page_num, _merged_object, (prev, nxt))
            del items[0]
        self.items += items

    # ------------------------------------------------------------------
    def _reconstruct_dual_dialog(self, blocks: List[Block]) -> None:
        num_blocks = len(blocks)
        bx = 0
        while bx < num_blocks:
            character1 = blocks[bx]
            if bx + 2 >= num_blocks:
                break
            dialog_2_spliced: List[Block] = []
            character2 = blocks[bx + 1]
            if (character1.y == character2.y and character1.height == 1
                    and character2.height == 1
                    and looks_like_character(character1.lines[0])
                    and looks_like_character(character2.lines[0])):
                prev1 = character1
                prev2 = character2
                last_dialog_1 = None
                bx_search = bx + 2
                while bx_search < num_blocks:
                    block = blocks[bx_search]
                    in_char1_range = (
                        block.x < character1.x + 5 * DEFAULT_CHAR_WIDTH)
                    if block.is_blank():
                        break
                    elif block.y == prev1.y + prev1.height and in_char1_range:
                        is_dialog_1 = True
                    elif block.y == prev2.y + prev2.height and not in_char1_range:
                        is_dialog_1 = False
                    else:
                        break
                    if is_dialog_1:
                        for i in range(block.height):
                            nxt = (blocks[bx_search + 1]
                                   if bx_search + 1 < num_blocks else None)
                            if block.y + i == prev2.y + prev2.height:
                                if nxt is None or nxt.y != block.y + i:
                                    line = block.lines[i]
                                    last_gap_str = None
                                    for gap_size in range(3, 10):
                                        gap_str = " " * gap_size
                                        if line.find(gap_str) == -1:
                                            break
                                        last_gap_str = gap_str
                                    split_pos = -1
                                    if last_gap_str is not None:
                                        pos = 0
                                        while True:
                                            pos = line.find(
                                                last_gap_str,
                                                pos + len(last_gap_str))
                                            if pos == -1:
                                                break
                                            if block.x + pos < character2.x:
                                                split_pos = pos
                                    if split_pos != -1:
                                        second_line = line[split_pos + 1:].strip(_PHP_TRIM)
                                        second_x = block.x + (
                                            len(line) - len(second_line)
                                        ) * DEFAULT_CHAR_WIDTH
                                        block.lines[i] = line[:split_pos].strip(_PHP_TRIM)
                                        second_width = len(second_line) * DEFAULT_CHAR_WIDTH
                                        if abs(second_x - prev2.x) > 2 * DEFAULT_CHAR_WIDTH:
                                            prev2 = Block(BlockPiece(
                                                second_line, second_x,
                                                block.y + i, second_width, {},
                                                block.font_size, {},
                                                block.number_object))
                                            prev2.kind = ("Paren" if prev2.is_entirely_parens()
                                                          else "Dialog")
                                            dialog_2_spliced.append(prev2)
                                        else:
                                            prev2.combine(BlockPiece(
                                                second_line, second_x,
                                                block.y + i, second_width, {},
                                                block.font_size, {},
                                                block.number_object))
                                else:
                                    if abs(nxt.x - prev2.x) > 2 * DEFAULT_CHAR_WIDTH:
                                        prev2 = nxt
                                        prev2.kind = ("Paren" if prev2.is_entirely_parens()
                                                      else "Dialog")
                                        dialog_2_spliced.append(prev2)
                                    else:
                                        for num, line in enumerate(nxt.lines):
                                            prev2.combine(BlockPiece(
                                                line.strip(_PHP_TRIM), nxt.x,
                                                nxt.y + num,
                                                len(line) * DEFAULT_CHAR_WIDTH,
                                                {}, nxt.font_size, {},
                                                block.number_object))
                                    del blocks[bx_search + 1]
                                    num_blocks = len(blocks)
                        prev1 = block
                        prev1.kind = ("Paren" if prev1.is_entirely_parens()
                                      else "Dialog")
                        last_dialog_1 = bx_search
                    else:
                        if prev1 is character1:
                            break
                        prev2 = block
                        prev2.kind = ("Paren" if prev2.is_entirely_parens()
                                      else "Dialog")
                        dialog_2_spliced.append(prev2)
                        del blocks[bx_search]
                        num_blocks = len(blocks)
                        bx_search -= 1
                    bx_search += 1

                if not dialog_2_spliced:
                    bx += 1
                    continue
                character1.kind = character2.kind = "Character"
                character1.has_dual_line = True
                character2.is_dual_line = True
                del blocks[bx + 1]
                dialog_2_spliced.insert(0, character2)
                blocks[last_dialog_1:last_dialog_1] = dialog_2_spliced
                bx = last_dialog_1 + len(dialog_2_spliced) - 1
                num_blocks = len(blocks)
                if bx + 1 < num_blocks:
                    if blocks[bx + 1].kind == "Dialog":
                        blocks[bx + 1].kind = "Action"
            bx += 1


def parse_pages_xml(pages: List[str]) -> Script:
    return parse_pages_xml_full(pages)[0]


def parse_pages_xml_full(pages: List[str]):
    """Full document extraction: page-XML strings → (Script, DocState)
    — the state carries headers/footers/colors/continued flags for the
    JSON writer and revision inference."""
    state = DocState()
    for page_xml in pages:
        process_page_xml(page_xml, state)
    return _parse_document(state)


def parse_page_records_full(pages):
    """The same extraction from the native PDF front-end's typed page
    records (``pdfnative.PageRecord``): no XML on this path."""
    state = DocState()
    for page in pages:
        assemble_page(int(page.height), page.fontspecs, page.fragments,
                      state)
    return _parse_document(state)


def _parse_document(state: DocState):
    """Run the block engine over the assembled lines, page by page.

    Mirrors parse_xml_file (ParseText.php:28-654) including the
    form-feed quirk: a single-page document's only \f is the trailing
    sentinel, so the reference takes the broken no-formfeed branch
    (undefined $lines) and produces no objects (:610-646)."""
    contains_formfeeds = False
    n = len(state.line_objects)
    for num, lo in enumerate(state.line_objects):
        i = lo.text.find("\f")
        if i != -1:
            if (num != n - 1
                    or lo.text[i + 1:].strip(_PHP_TRIM) != ""):
                contains_formfeeds = True
            break

    parser = TextParser(state.colors)
    if contains_formfeeds:
        lines_this_page: List[LineObject] = []
        first_time = True
        last_given = ""
        for lo in state.line_objects:
            if lo.text == "\f":
                parser.parse_page(lines_this_page, first_time, lo.given_page_num)
                first_time = False
                lines_this_page = []
            else:
                lines_this_page.append(lo)
            last_given = lo.given_page_num
        if lines_this_page:
            parser.parse_page(lines_this_page, False, last_given)
    # else: the reference's undefined-$lines branch → no objects
    return Script(parser.items), state
