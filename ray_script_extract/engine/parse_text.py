"""Text_Parser: the sequential per-document page fold.

Behavioral spec re-derived from the reference's parse_page pipeline
(`/root/reference/src/parser/analyzer/ParseText.php:1007-1793`):
tab/CONT'D normalization → block-piece split on ≥12-space runs →
title-page detection → vertical block merge → content classification →
indent inference → reclassification passes → dual-dialog
reconstruction → Unknown/Action finalization → margin-blank removal →
ScriptObjects, with the cross-page Dialog merge at the end.  See
blocks.py for the quirk inventory.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from ..functions.looks_like import (
    looks_like_character,
    looks_like_scene_number,
    looks_like_series_or_montage_slugline,
    looks_like_slugline,
)
from ..functions.textutil import is_uppercase, reduce_spaces
from .blocks import (
    Block,
    BlockPiece,
    SeriesTimer,
    get_alignment,
    get_likely_indent_for,
    maybe_merge_across_intersentence_spaces,
    nextgen_compute_indents,
    prevgen_compute_indents,
    white_out,
)
from .objects import ScriptObject
from .pagexml import (DEFAULT_CHAR_WIDTH, INCH, DocState, LineObject,
                      assemble_page, process_page_xml)

_NBS_RTRIM = " \n\r\t\x0b\x00\u00a0"
_PHP_TRIM = " \t\n\r\x00\x0b"
_FULL_TRIM = re.compile(r"^[ \t\n\r\f\x0b\x00]+|[ \t\n\r\f\x0b\x00]+$")
_BY_ALONE = re.compile(r"(^| )[Bb][Yy]$")
_BY_PREFIX = re.compile(r"(^| )[Bb][Yy] ")

_TWELVE_SPACES = " " * 12

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


def classify_fly_page_objects(objects: List[ScriptObject]) -> List[ScriptObject]:
    found_title = False
    found_author = False
    next_is_author = False
    possible_author_index = -1
    i = 0
    while i < len(objects):
        text = objects[i].content
        if text == "":
            i += 1
            continue
        if next_is_author:
            objects[i].type = "Author"
            found_author = True
            next_is_author = False
        if not found_title:
            objects[i].type = "Title"
            found_title = True
            i += 1
            continue
        if possible_author_index == -1:
            possible_author_index = i
        if not found_author:
            if _BY_ALONE.search(text):
                next_is_author = True
            elif _BY_PREFIX.search(objects[i].content):
                content = objects[i].content
                by_pos = content.lower().find("by ")
                original_length = len(content)
                author_name = content[by_pos + 3:]
                colors = objects[i].colors
                text_attrs = objects[i].attributes.get("textAttributes", {})
                split_colors = split_attribute(colors, 0, by_pos + 2)
                split_attrs = split_attribute(text_attrs, 0, by_pos + 2)
                old = objects[i]
                objects[i] = ScriptObject(
                    old.type, content[:by_pos + 2], old.page_num,
                    old.given_page_num, split_colors, old.get_font_size(),
                    split_attrs, old.attributes.get("numberObject", {}),
                    pdf_path=True)
                split_colors2 = split_attribute(colors, by_pos + 3, original_length)
                split_attrs2 = split_attribute(text_attrs, by_pos + 3, original_length)
                objects.insert(i + 1, ScriptObject(
                    "Author", author_name, old.page_num, old.given_page_num,
                    split_colors2, old.get_font_size(), split_attrs2, {},
                    pdf_path=True))
                found_author = True
        i += 1
    if not found_author and possible_author_index != -1:
        objects[possible_author_index].type = "Author"
    return objects


def maybe_break_up_last_dialog(objects: List[ScriptObject]) -> None:
    """The splitting loop is disabled in the reference (if (FALSE),
    ParseText.php:2624): net effect is replacing the last Dialog with a
    freshly-built copy (resetting num_lines / dual flags) with ranges
    re-sliced from offset 0."""
    if not objects:
        return
    last = objects[-1]
    if last.type != "Dialog":
        return
    objects.pop()
    text = last.content
    if text == "":
        return
    colors = split_attribute(last.colors, 0, len(text))
    attrs = split_attribute(last.attributes.get("textAttributes", {}), 0, len(text))
    objects.append(ScriptObject(
        "Dialog", text, last.page_num, last.given_page_num, colors,
        last.get_font_size(), attrs, last.attributes.get("numberObject", {}),
        pdf_path=True))


class TextParser:
    """``debug_sink`` (optional callable ``(stage_name, blocks)``)
    mirrors the reference's 8 ``$DUMP_BLOCKS`` dump points
    (ParseText.php:1177-1677) — a stage-snapshot hook for differential
    conformance debugging."""

    def __init__(self, colors, debug_sink=None) -> None:
        self.objects: List[ScriptObject] = []
        self.num_pages = 0
        self.given_page_num = ""
        self.colors = colors
        self._timer = SeriesTimer()
        self._debug_sink = debug_sink

    def _snap(self, stage: str, blocks: List[Block]) -> None:
        if self._debug_sink is not None:
            self._debug_sink(stage, [
                {"kind": b.kind, "x": b.x, "y": b.y,
                 "unsure": b.classification_is_unsure,
                 "lines": list(b.lines)} for b in blocks])

    # ------------------------------------------------------------------
    def parse_page(self, line_objects: List[LineObject],
                   look_for_fly_page: bool, given_page_num) -> None:
        # static $last_page_block_kind is never updated in the
        # reference (the update is inside `if (false)`) → always "Blank"
        last_page_block_kind = "Blank"
        self.num_pages += 1
        self.given_page_num = given_page_num

        # --- normalize each line -------------------------------------
        for lo in line_objects:
            text = lo.text.rstrip(_NBS_RTRIM + " ")
            while True:
                i = text.find("\t")
                if i == -1:
                    break
                prefix = text[:i]
                tabstop = "        "[len(prefix) % 8:]
                text = prefix + tabstop + text[i + 1:]
            text = white_out(text)
            lo.text = _FULL_TRIM.sub("", text)

        # --- split into block pieces ---------------------------------
        block_pieces: List[BlockPiece] = []
        page_text = ""
        num_lines_with_text = 0
        for lx, lo in enumerate(line_objects):
            i = 0
            text = lo.text
            added_block = False
            n = len(text)
            while i != n and text[i] == " ":
                i += 1
            while i != n:
                end = text.find(_TWELVE_SPACES, i)
                if end == -1:
                    end = n
                preceding = text[:i]
                s = text[i:end]
                page_text += s + "\n"
                trim_x = len(preceding) * DEFAULT_CHAR_WIDTH
                block_pieces.append(BlockPiece(
                    s, lo.x + trim_x, lx, lo.width - trim_x, lo.line_colors,
                    lo.line_font_size, lo.line_text_attributes,
                    lo.line_number_object))
                num_lines_with_text += 1
                added_block = True
                i = end
                if i < n:
                    i += len(_TWELVE_SPACES)
                    if i > n:
                        i = n
                while i != n and text[i] == " ":
                    i += 1
            if not added_block:
                block_pieces.append(BlockPiece(
                    "", lo.x + i * 11, lx, 0, lo.line_colors,
                    lo.line_font_size, lo.line_text_attributes,
                    lo.line_number_object))

        # --- title page? ---------------------------------------------
        if (look_for_fly_page and not self.objects
                and num_lines_with_text < 30 and len(page_text) < 300):
            objects: List[ScriptObject] = []
            for piece in block_pieces:
                text = piece.text.strip(_PHP_TRIM)
                if piece.font_size == 0:
                    continue
                o = ScriptObject("Text", text, self.num_pages,
                                 self.given_page_num, piece.colors,
                                 piece.font_size, piece.text_attributes,
                                 piece.number_object, pdf_path=True)
                alignment = get_alignment(piece.x, piece.width, 1 * INCH,
                                          8.5 * INCH)
                if alignment != "left":
                    o.set_attribute("alignment", alignment)
                objects.append(o)
            self.objects = classify_fly_page_objects(objects)
            return
        elif not self.objects:
            self.num_pages += 1  # fake title page

        # --- combine pieces into blocks ------------------------------
        # The reference scans the last 20 blocks calling should_combine
        # on each (ParseText.php:1159-1167).  A block whose y+height
        # doesn't equal the piece's y returns False before ANY
        # side-effecting SERIES_TIMER evaluation, so pre-bucketing the
        # window by y+height is semantics-preserving and skips the
        # dead calls (most of the scan on real pages).
        blocks: List[Block] = []
        by_y_end: Dict[int, List[int]] = {}
        for piece in block_pieces:
            if looks_like_slugline(piece.text):
                self._timer.value = 0
                if looks_like_series_or_montage_slugline(piece.text):
                    self._timer.value = 20
            done = False
            window_start = max(0, len(blocks) - 20)
            for ax in by_y_end.get(piece.y, ()):
                if ax < window_start:
                    continue
                if blocks[ax].should_combine(piece, self._timer):
                    block = blocks[ax]
                    by_y_end[block.y + block.height].remove(ax)
                    block.combine(piece)
                    by_y_end.setdefault(block.y + block.height, []).append(ax)
                    by_y_end[block.y + block.height].sort()
                    done = True
                    break
            if not done:
                blocks.append(Block(piece))
                block = blocks[-1]
                by_y_end.setdefault(block.y + block.height, []).append(
                    len(blocks) - 1)

        maybe_merge_across_intersentence_spaces(blocks)
        self._snap("before_classify", blocks)

        # --- classify based on content -------------------------------
        for bx, block in enumerate(blocks):
            prev_kind = blocks[bx - 1].kind if bx > 0 else last_page_block_kind
            if prev_kind == "Page Number":
                prev_kind = blocks[bx - 2].kind if bx > 1 else last_page_block_kind
            block.classify_based_on_content(prev_kind, bx)
        self._snap("after_classify", blocks)

        likely_indent_for = nextgen_compute_indents(blocks)
        if likely_indent_for is False:
            likely_indent_for = prevgen_compute_indents(blocks)

        if ("Character" in likely_indent_for and "Dialog" in likely_indent_for
                and likely_indent_for["Dialog"] == 0):
            if likely_indent_for.get("Action") == 0:
                del likely_indent_for["Action"]
            if likely_indent_for.get("Slugline") == 0:
                del likely_indent_for["Slugline"]

        # --- reclassify using indents --------------------------------
        common_kinds = ("Character", "Dialog", "Slugline", "Action", "Transition")
        for ax, block in enumerate(blocks):
            maybes = []
            for v in common_kinds:
                if v not in likely_indent_for:
                    continue
                if abs(block.x - likely_indent_for[v]) <= 3:
                    maybes.append(v)
            block.maybes = maybes
            if block.classification_is_unsure:
                block.reclassify_using_indent(maybes)
            if (block.classification_is_unsure
                    and block.is_uppercase_single_line()):
                if block.x > 600 or (block.x > 400 and block.x + block.width > 700):
                    block.kind = "Transition"
                    block.classification_is_unsure = True
            if (block.is_transition_follower() and ax > 20
                    and blocks[ax - 1].classification_is_unsure
                    and blocks[ax - 1].is_uppercase_single_line()):
                blocks[ax - 1].kind = "Transition"

        self._snap("after_reclassify_indent", blocks)

        # --- Unknown at modal indent → Slugline/Action ---------------
        likely2: Dict[str, object] = {}
        for v in ("Character", "Dialog", "Slugline", "Action", "Unknown"):
            likely2[v] = get_likely_indent_for(blocks, v)
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

        self._snap("after_unknown_modal", blocks)

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
            prev = blocks[ax - 1] if ax - 1 >= 0 else None
            nxt = blocks[ax + 1] if ax + 1 < len(blocks) else None
            if (block.height == 1 and looks_like_scene_number(block.lines[0])
                    and ((prev is not None and prev.y == block.y
                          and prev.kind == "Slugline")
                         or (nxt is not None and nxt.y == block.y
                             and nxt.kind == "Slugline"))):
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
        self._snap("before_dual_dialog", blocks)
        self._reconstruct_dual_dialog(blocks)
        self._snap("after_dual_dialog", blocks)

        # --- Unknown → final kind ------------------------------------
        for block_index, block in enumerate(blocks):
            if block.kind == "Unknown":
                kind = "Action"
                if block_index > 0:
                    prev_block = blocks[block_index - 1]
                    if not prev_block.is_blank():
                        if prev_block.kind in ("Character", "Dialog", "Paren"):
                            kind = "Dialog"
                        else:
                            kind = "Text"
                block.kind = kind

        self._snap("after_unknown_final", blocks)

        # --- Action → Text/Shot by vertical spacing ------------------
        for block_index, block in enumerate(blocks):
            if block.kind == "Action":
                if block_index > 0:
                    if not blocks[block_index - 1].is_blank():
                        block.kind = "Text"
                    elif (block_index >= 2 and blocks[block_index - 2].is_blank()
                          and block.is_uppercase_single_line()):
                        block.kind = "Shot"

        self._snap("after_action_spacing", blocks)

        # --- margin-blank removal ------------------------------------
        removed = [False] * len(blocks)
        seen_real_line = False
        num_blocks = len(blocks)
        i = 0
        while i < num_blocks:
            block = blocks[i]
            if block.is_blank():
                next_block_kind = ""
                j = i + 1
                while j < num_blocks:
                    if not blocks[j].is_blank():
                        next_block_kind = blocks[j].kind
                        break
                    j += 1
                num_blanks = j - i
                margin_num_blanks = (num_blanks if next_block_kind == ""
                                     else LINES_BEFORE_TYPE.get(next_block_kind, 0))
                num_blanks_to_remove = min(num_blanks, margin_num_blanks)
                if not seen_real_line and margin_num_blanks > 0:
                    if num_blanks_to_remove == num_blanks:
                        num_blanks_to_remove -= 1
                for k in range(i, i + num_blanks_to_remove):
                    removed[k] = True
                i = j
            else:
                seen_real_line = True
                i += 1
        blocks = [b for ix, b in enumerate(blocks) if not removed[ix]]

        self._snap("after_blank_removal", blocks)

        # --- blocks → ScriptObjects ----------------------------------
        objects: List[ScriptObject] = []
        for block in blocks:
            kind = block.kind
            if kind == "Horizontal Rule":
                kind = "Text"
            if kind == "Contact Info":
                for x, line in enumerate(block.lines):
                    objects.append(ScriptObject(
                        "Text", reduce_spaces(line), self.num_pages,
                        self.given_page_num, block.colors[x], block.font_size,
                        block.text_attributes[x], block.number_object,
                        pdf_path=True))
            else:
                bv = block.get_text_and_colors()
                o = ScriptObject(kind, reduce_spaces(bv["text"]),
                                 self.num_pages, self.given_page_num,
                                 bv["colors"], block.font_size,
                                 bv["textAttributes"], block.number_object,
                                 pdf_path=True)
                o.num_lines = block.height
                o.is_dual_line = block.is_dual_line
                o.has_dual_line = block.has_dual_line
                if kind in FULL_WIDTH_LINE_TYPES:
                    alignment = get_alignment(block.x, block.width,
                                              1.5 * INCH, 8.5 * INCH)
                    if alignment != "left":
                        o.set_attribute("alignment", alignment)
                elif kind == "Transition":
                    alignment = get_alignment(block.x, block.width,
                                              1.5 * INCH, 8.5 * INCH)
                    if alignment != "right":
                        o.set_attribute("alignment", alignment)
                objects.append(o)
                maybe_break_up_last_dialog(objects)

        # --- cross-page Dialog merge ---------------------------------
        if (self.objects and objects and self.objects[-1].type == "Dialog"
                and objects[0].type == "Dialog"):
            prev = self.objects[-1]
            nxt = objects[0]
            new_font = max(prev.get_font_size(), nxt.get_font_size())
            merged_colors = prev.merged_ranges(
                prev.colors, nxt.colors, len(prev.content) + 1)
            merged_attrs = prev.merged_ranges(
                prev.attributes.get("textAttributes", {}),
                nxt.attributes.get("textAttributes", {}),
                len(prev.content) + 1)
            self.objects[-1] = ScriptObject(
                "Dialog", prev.content + " " + nxt.content, self.num_pages,
                self.given_page_num, merged_colors, new_font, merged_attrs,
                prev.attributes.get("numberObject", {}), pdf_path=True)
            objects = objects[1:]
        self.objects.extend(objects)

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
                                                line, nxt.x, nxt.y + num,
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


def parse_pages_xml(pages: List[str]) -> List[ScriptObject]:
    return parse_pages_xml_full(pages)[0]


def parse_pages_xml_full(pages: List[str]):
    """Full document extraction: page-XML strings → (ScriptObjects,
    DocState) — the state carries headers/footers/colors/continued
    flags for the JSON writer and revision inference."""
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
    return parser.objects, state
