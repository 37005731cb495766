"""The screenplay block engine: LineObjects → classified ScriptObjects.

A block's text (``Block.text``) is all the extract path reads; its
colour and attribute ranges (``Block.ranges``) are built only when a
writer reads the ScriptObject's ranges.

Behavioral spec re-derived from the reference's Text_Parser
(`/root/reference/src/parser/analyzer/ParseText.php:991-1794`) and
NGText_Block (`:1939-2388`), including its load-bearing quirks:

* `classify_based_on_content`'s character clause guards on an
  undefined `$bx` (param is `$block_num`), so the guard is always
  TRUE — the effective rule is `height==1 && looks_like_character`
  (ParseText.php:2292);
* `reclassify_using_indent`'s Action/Slugline branch reads undefined
  `$blockIndex`/`$blocks`, so it ALWAYS assigns "Action", never
  "Text" (:2353-2366);
* `should_combine` is called with a second argument the function
  doesn't declare, so `$intervening_blockpiece` inside it is
  undefined/falsy and the series-indent no-merge rule at :2082 never
  fires — but `get_series_indent`'s SERIES_TIMER side effects from
  evaluating the conditions still happen, in evaluation order;
* `NGText_Block::combine` with a non-adjacent y hits a disabled
  assert and silently drops the piece (:2049-2051);
* `static $last_page_block_kind` is never updated (the update sits in
  an `if (false)`), so the first block of every page sees prev_kind
  "Blank" (:1009,1767-1780);
* `maybe_break_up_last_dialog`'s splitting loop is disabled
  (`if (FALSE)`, :2624), so its net effect is replacing the last
  Dialog with a freshly-constructed copy (resetting num_lines and the
  dual flags, dropping an empty one, re-slicing its ranges to the
  content length); parse_text builds each Dialog in that final shape
  once (`_dialog_ranges`);
* the Dialog-after-slug demotion compares `$block->x` with a
  possibly-FALSE indent via loose `==` (:1310), so x==0 matches a
  missing Action indent.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..functions.looks_like import (
    contains_vo_os_notation,
    looks_like_changebar,
    looks_like_character,
    looks_like_contact_info,
    contains_date,
    looks_like_hrule,
    looks_like_parenthetical,
    looks_like_scene_number,
    looks_like_slugline,
    looks_like_slugline_or_transition,
    looks_like_the_end,
    looks_like_transition,
)
from ..functions.textutil import is_uppercase
from .pagexml import DEFAULT_CHAR_WIDTH, INCH

_PHP_TRIM = " \t\n\r\x00\x0b"
_NBS_RTRIM = " \n\r\t\x0b\x00\u00a0"
_FULL_TRIM = re.compile(r"^[ \t\n\r\f\x0b\x00]+|[ \t\n\r\f\x0b\x00]+$")

_WHITE_OUT_TERMS = ("CONTINUED:", "(CONTINUED)", "(CONT)", "(CONT.)",
                    "(CONTD)", "(CONT'D)", "(CONT’D)", "(MORE)",
                    "[CONTINUED]", "[CONT]", "[CONT.]", "[CONTD]",
                    "[CONT'D]", "[CONT’D]", "[MORE]")
_WHITE_OUT_VARIANTS = []
for _t in _WHITE_OUT_TERMS:
    for _v in (_t, _t.replace("'", "’"), _t.replace("'", "‘")):
        if _v not in _WHITE_OUT_VARIANTS:
            _WHITE_OUT_VARIANTS.append(_v)
# one alternation pass replaces the 45 sequential subs; terms are
# mutually non-substring so longest-first alternation is equivalent
_WHITE_OUT_ONE = re.compile(
    "|".join(re.escape(v) for v in
             sorted(_WHITE_OUT_VARIANTS, key=len, reverse=True)),
    re.IGNORECASE)
# cheap pre-filter: every term contains one of these anchors
_WHITE_OUT_ANCHOR = re.compile(r"CONT|MORE", re.IGNORECASE)

_SERIES_INDENT_SPACED = re.compile(r"^(\(?[A-Z][.)]\)?[ ]+)")
_SERIES_INDENT_ALONE = re.compile(r"^(\(?[A-Z][.)]\)?)$")
_UPPER_THEN_LOWER = re.compile(r"^[A-Z].*[a-z]")
_PRONOUN_RE = re.compile(r"[^A-Za-z](I|me|my|you|your|yours)[^A-Za-z]", re.I)
_ACTION_VERB_RE = re.compile(
    r"([Ww]e see|enters|faces|looks|smiles|stares|walks|As (she|he|they))")
_SENTENCE_END_RE = re.compile(r"[.:?!]$")
_STARTS_UPPER_RE = re.compile(r"^[A-Z]")
_HYPHEN_END_RE = re.compile(r"[A-Za-z0-9]-$")


def white_out(text: str) -> str:
    if not _WHITE_OUT_ANCHOR.search(text):
        return text
    return _WHITE_OUT_ONE.sub(lambda m: " " * (m.end() - m.start()), text)


def get_alignment(x: float, width: float, default_left_margin: float,
                  page_width: float) -> str:
    line_end = x + width
    dist_from_right = (page_width - INCH) - line_end
    midpoint = x + width / 2
    page_midpoint = (page_width - default_left_margin - INCH) / 2 + default_left_margin
    if x > default_left_margin + INCH / 2 and abs(midpoint - page_midpoint) < INCH / 2:
        return "center"
    if (x > default_left_margin + max(dist_from_right, INCH)
            and dist_from_right < INCH * 2):
        return "right"
    return "left"


class BlockPiece:
    __slots__ = ("x", "y", "width", "text", "colors", "font_size",
                 "text_attributes", "number_object")

    def __init__(self, text: str, x: int, y: int, width: int, colors: Dict,
                 font_size, text_attributes: Dict, number_object: Dict) -> None:
        self.x = x
        self.y = y
        self.width = width
        self.text = text.strip(_PHP_TRIM)
        self.colors = colors
        self.font_size = font_size
        self.text_attributes = text_attributes
        self.number_object = number_object


class SeriesTimer:
    """The SERIES_TIMER global state machine (ParseText.php:1899-1920)."""

    def __init__(self) -> None:
        self.value = 0

    def get_series_indent(self, text: str) -> int:
        if self.value == 0:
            return 0
        m = _SERIES_INDENT_SPACED.match(text)
        if m:
            self.value = 10
            return len(m.group(1))
        if _SERIES_INDENT_ALONE.match(text):
            self.value = 10
            return 999
        self.value -= 1
        return 0


class Block:
    __slots__ = ("x", "y", "lines", "width", "height", "kind",
                 "classification_is_unsure",
                 "has_dual_line", "is_dual_line", "colors", "font_size",
                 "text_attributes", "number_object")

    def __init__(self, piece: BlockPiece) -> None:
        self.x = piece.x
        self.y = piece.y
        self.lines: List[str] = [piece.text]
        self.width = piece.width
        self.height = 1
        self.kind: Optional[str] = None
        self.classification_is_unsure = False
        self.is_dual_line = False
        self.has_dual_line = False
        self.colors: List[Dict] = [piece.colors]
        self.font_size = piece.font_size
        self.text_attributes: List[Dict] = [piece.text_attributes]
        self.number_object: Dict = dict(piece.number_object)

    def is_blank(self) -> bool:
        return self.height == 1 and self.lines[0] == ""

    def is_entirely_parens(self) -> bool:
        return (self.lines[0][:1] in ("(", "[")
                and self.lines[-1][-1:] in (")", "]"))

    def is_uppercase_single_line(self) -> bool:
        return self.height == 1 and is_uppercase(self.lines[0])

    def combine(self, piece: BlockPiece) -> None:
        if piece.y == self.y + self.height:
            # series_indent field is never set in the reference → the
            # first branch there is dead
            if piece.x < self.x:
                self.width += self.x - piece.x
            self.lines.append(piece.text)
            self.colors.append(piece.colors)
            right_edge = piece.x + piece.width
            self.width = max(self.width, right_edge - self.x)
            self.height += 1
            self.font_size = max(self.font_size, piece.font_size)
            self.text_attributes.append(piece.text_attributes)
            if "number" not in self.number_object and "number" in piece.number_object:
                self.number_object["number"] = piece.number_object["number"]
            if "left" in self.number_object or "left" in piece.number_object:
                self.number_object["left"] = 1
            if "right" in self.number_object or "right" in piece.number_object:
                self.number_object["right"] = 1
        # non-adjacent y: the reference hits a disabled assert and the
        # piece is silently dropped (ParseText.php:2037-2051)

    def should_combine(self, piece: BlockPiece, timer: SeriesTimer) -> bool:
        if piece.font_size != self.font_size:
            return False
        if (piece.y == self.y + self.height and piece.text != ""
                and not self.is_blank()):
            # SERIES_TIMER side effects happen in PHP evaluation order
            if (timer.get_series_indent(self.lines[0]) > 0
                    and piece.x == self.x
                    and timer.get_series_indent(piece.text) > 0):
                return False
            else:
                si = timer.get_series_indent(self.lines[0])
                if si > 0 and piece.x == self.x + timer.get_series_indent(self.lines[0]):
                    # quirk: `$intervening_blockpiece` is undefined here
                    # in the reference, so this branch never rejects
                    pass
                else:
                    chars2 = 2 * DEFAULT_CHAR_WIDTH
                    if not (self.x - chars2 <= piece.x <= self.x + chars2):
                        return False
            if piece.text[0] in ("(", "["):
                if self.is_uppercase_single_line():
                    return False
                p1 = piece.text.find(")")
                p2 = piece.text.find("]")
                n = len(piece.text)
                if ((p1 == -1 or p1 == n - 1) and (p2 == -1 or p2 == n - 1)):
                    return False
            if self.is_entirely_parens():
                return False
            if (piece.x == self.x and self.is_uppercase_single_line()
                    and self.width > 50 and is_uppercase(piece.text)
                    and not looks_like_slugline(piece.text)):
                return True
        elif piece.y == self.y + self.height - 1:
            return False
        else:
            return False
        if looks_like_slugline_or_transition(self.lines[0]):
            return False
        if looks_like_slugline_or_transition(piece.text):
            return False
        if self.is_uppercase_single_line() and _UPPER_THEN_LOWER.search(piece.text):
            return False
        if (self.height == 1 and looks_like_character(self.lines[0])
                and looks_like_parenthetical(piece.text)):
            return False
        return True

    def text(self) -> str:
        """The lines joined with one space, except where the text so far
        ends in an alphanumeric and a hyphen: the reference's
        get_text_and_colors without its ranges."""
        lines = self.lines
        if len(lines) == 1:
            return lines[0]
        joined = " ".join(lines)
        if "-" not in joined:
            return joined
        result = lines[0]
        for lx in range(1, len(lines)):
            if not _HYPHEN_END_RE.search(result, max(0, len(result) - 3)):
                result += " "
            result += lines[lx]
        return result

    def ranges(self) -> Tuple[Dict, Dict]:
        """Colour and textAttribute ranges over ``text()``: each line's
        ranges shifted to where the join puts that line.  Only the
        writers read them, through a ScriptObject's ``ranges`` thunk."""
        result = self.lines[0]
        result_colors = {k: list(v) for k, v in self.colors[0].items()}
        result_attrs = {k: list(v) for k, v in self.text_attributes[0].items()}
        for lx in range(1, len(self.lines)):
            if not _HYPHEN_END_RE.search(result):
                result += " "
            prev_len = len(result)
            for key, entries in self.colors[lx].items():
                for e in entries:
                    result_colors.setdefault(key, []).append(
                        {"start": e["start"] + prev_len, "end": e["end"] + prev_len})
            for key, entries in self.text_attributes[lx].items():
                for e in entries:
                    result_attrs.setdefault(key, []).append(
                        {"start": e["start"] + prev_len, "end": e["end"] + prev_len})
            result += self.lines[lx]
        return result_colors, result_attrs

    def definitely_not_character(self) -> bool:
        if self.height != 1:
            t = self.text()
            if "(" not in t and "[" not in t:
                return True
        if self.lines[0][:1] in ("-", "."):
            return True
        return False

    def definitely_not_transition(self) -> bool:
        return not self.is_uppercase_single_line()

    def is_transition_follower(self) -> bool:
        if self.kind == "Slugline":
            return True
        if self.kind != "Action":
            return False
        t = self.text()
        i = t.find(" ")
        if i == -1:
            # strstr returns FALSE; is_uppercase(FALSE) is FALSE in PHP
            return False
        return is_uppercase(t[:i])

    def classify_based_on_content(self, prev_kind: str, block_num: int) -> None:
        if self.is_blank():
            self.kind = "Text"
            return
        probably_dialog = prev_kind in ("Character", "Paren")
        self.classification_is_unsure = False
        if (block_num < 3 and len(self.lines) == 1
                and contains_date(self.lines[0]) and len(self.lines[0]) < 28):
            self.kind = "Page Header"
        elif looks_like_changebar(self.lines):
            self.kind = "Changebar"
        elif self.height == 1 and looks_like_slugline(self.lines[0]):
            self.kind = "Slugline"
            old_line = self.lines[0]
            split_slug = self.lines[0].split(" ")
            if looks_like_scene_number(split_slug[0]):
                split_slug = split_slug[1:]
                self.lines[0] = " ".join(split_slug).strip(_PHP_TRIM)
                self.x += (len(old_line) - len(self.lines[0])) * DEFAULT_CHAR_WIDTH
        elif self.height == 1 and looks_like_transition(self.lines[0]):
            self.kind = "Transition"
        elif self.height == 1 and looks_like_the_end(self.lines[0]):
            self.kind = "Action"
        elif self.height == 1 and looks_like_hrule(self.lines[0]):
            self.kind = "Horizontal Rule"
        elif self.height > 1 and looks_like_contact_info(self.lines):
            self.kind = "Contact Info"
        elif self.height == 1 and looks_like_character(self.lines[0]):
            # quirk: the `$bx == 0 || $prev_kind == "Text"` guard is
            # always TRUE because $bx is undefined (ParseText.php:2292)
            if contains_vo_os_notation(self.lines[0]):
                self.kind = "Character"
            else:
                self.kind = ("Slugline" if self.x < 8 and is_uppercase(self.lines[0])
                             else "Character")
                self.classification_is_unsure = True
        else:
            text = self.text()
            if looks_like_parenthetical(text):
                self.kind = "Paren"
                return
            self.classification_is_unsure = True
            if probably_dialog or _PRONOUN_RE.search(text):
                self.kind = "Dialog"
            elif _ACTION_VERB_RE.search(text):
                self.kind = "Action"
            else:
                self.kind = "Unknown"

    def reclassify_using_indent(self, maybe_kinds: List[str]) -> None:
        if "Character" in maybe_kinds and self.definitely_not_character():
            maybe_kinds = [v for v in maybe_kinds if v != "Character"]
        if "Transition" in maybe_kinds and self.definitely_not_transition():
            maybe_kinds = [v for v in maybe_kinds if v != "Transition"]
        if self.kind in maybe_kinds:
            self.classification_is_unsure = False
            return
        elif len(maybe_kinds) == 1 and self.kind == "Unknown":
            self.kind = maybe_kinds[0]
            return
        if "Dialog" in maybe_kinds:
            if len(maybe_kinds) == 1:
                self.kind = "Dialog"
                return
            maybe_kinds = [v for v in maybe_kinds if v != "Dialog"]
        if "Action" in maybe_kinds or "Slugline" in maybe_kinds:
            # quirk: `$blockIndex`/`$blocks` are undefined in the
            # reference, so this ALWAYS assigns Action (never Text)
            self.kind = "Action"
            self.classification_is_unsure = False
            return
        if len(maybe_kinds) == 1 and (self.kind == "Unknown"
                                      or self.classification_is_unsure):
            self.kind = maybe_kinds[0]
            return


def get_likely_indents(blocks: List[Block], kinds) -> Dict[str, object]:
    """Per kind, the mode of block x in one pass over the blocks; ties
    go by first appearance: the last max key for Character/Dialog, the
    first for others (ParseText.php:1872-1897, get_likely_indent_for).
    A kind no block has maps to False."""
    counts: Dict[str, Dict[int, int]] = {kind: {} for kind in kinds}
    for block in blocks:
        by_x = counts.get(block.kind)
        if by_x is not None:
            by_x[block.x] = by_x.get(block.x, 0) + 1
    likely: Dict[str, object] = {}
    for kind, by_x in counts.items():
        if by_x:
            mx = max(by_x.values())
            max_keys = [k for k in by_x if by_x[k] == mx]  # insertion order
            likely[kind] = (max_keys[-1] if kind in ("Character", "Dialog")
                            else max_keys[0])
        else:
            likely[kind] = False
    return likely


def prevgen_compute_indents(blocks: List[Block]) -> Dict[str, int]:
    likely = {k: v for k, v in get_likely_indents(
        blocks, ("Character", "Dialog", "Slugline", "Action")).items()
        if v is not False}
    if ("Action" not in likely and "Slugline" not in likely
            and "Dialog" in likely and likely["Dialog"] > 0):
        likely["Action"] = 0
    if "Action" not in likely and "Slugline" in likely:
        likely["Action"] = likely["Slugline"]
    if "Slugline" not in likely and "Action" in likely:
        likely["Slugline"] = likely["Action"]
    return likely


_INDENT_KINDS = frozenset({"Character", "Paren", "Dialog", "Action",
                           "Slugline", "Transition", "Text", "Unknown"})


def nextgen_compute_indents(blocks: List[Block]):
    by_indent: Dict[int, List[Block]] = {}
    for block in blocks:
        if (block.kind in _INDENT_KINDS
                and not looks_like_scene_number(block.text())):
            by_indent.setdefault(block.x, []).append(block)

    likely: Dict[str, int] = {}
    lkeys = sorted(by_indent.keys())

    def count(kind: str, key) -> int:
        return sum(1 for b in by_indent[key] if b.kind == kind)

    if len(lkeys) == 2:
        # quirk kept: all five counters below sample level 0
        # (the reference indexes $lkeys[0] for t1/c1/p1 too)
        s0 = count("Slugline", lkeys[0])
        a0 = count("Action", lkeys[0])
        t1 = count("Transition", lkeys[0])
        c1 = count("Character", lkeys[0])
        p1 = count("Paren", lkeys[0])
        if c1 + p1 == len(by_indent[lkeys[1]]):
            likely["Dialog"] = lkeys[0]
            likely["Character"] = lkeys[1]
            likely["Paren"] = lkeys[1]
        elif s0 or a0 or t1:
            likely["Slugline"] = lkeys[0]
            likely["Action"] = lkeys[0]
            likely["Transition"] = lkeys[1]
        else:
            return False
    elif len(lkeys) == 3:
        c1 = count("Character", lkeys[1])
        c2 = count("Character", lkeys[2])
        p1 = count("Paren", lkeys[1])
        p2 = count("Paren", lkeys[2])
        if c2 == 0 or c1 > c2:
            return False
        if p1 == len(by_indent[lkeys[1]]):
            likely["Dialog"] = lkeys[0]
            likely["Paren"] = lkeys[1]
            likely["Character"] = lkeys[2]
        else:
            likely["Slugline"] = lkeys[0]
            likely["Action"] = lkeys[0]
            likely["Dialog"] = lkeys[1]
            likely["Character"] = lkeys[2]
            likely["Paren"] = lkeys[1] if p1 >= p2 else lkeys[2]
    elif len(lkeys) == 4:
        p1 = count("Paren", lkeys[1])
        p2 = count("Paren", lkeys[2])
        c2 = count("Character", lkeys[2])
        c3 = count("Character", lkeys[3])
        t3 = count("Transition", lkeys[3])
        if c3 != 0 and p2 == len(by_indent[lkeys[2]]):
            if p1 == len(by_indent[lkeys[1]]):
                likely["Dialog"] = lkeys[0]
                likely["Paren"] = lkeys[1] if p1 >= p2 else lkeys[2]
                likely["Character"] = lkeys[3]
            else:
                likely["Slugline"] = lkeys[0]
                likely["Action"] = lkeys[0]
                likely["Dialog"] = lkeys[1]
                likely["Paren"] = lkeys[2]
                likely["Character"] = lkeys[3]
        elif c2 and t3:
            likely["Slugline"] = lkeys[0]
            likely["Action"] = lkeys[0]
            likely["Dialog"] = lkeys[1]
            likely["Paren"] = lkeys[1] if p1 >= p2 else lkeys[2]
            likely["Character"] = lkeys[2]
            likely["Transition"] = lkeys[3]
        else:
            return False
    else:
        return False
    return likely


def maybe_merge_across_intersentence_spaces(blocks: List[Block]) -> None:
    ax = 0
    while ax < len(blocks) - 1:
        block = blocks[ax]
        nextblock = blocks[ax + 1]
        if nextblock.height != 1 or nextblock.x <= block.x:
            ax += 1
            continue
        y_offset = nextblock.y - block.y
        if y_offset >= block.height or y_offset < 0:
            ax += 1
            continue
        offending = block.lines[y_offset]
        right_edge = block.x + len(offending) * DEFAULT_CHAR_WIDTH
        if (nextblock.x > right_edge + 5
                or not _SENTENCE_END_RE.search(offending)
                or not _STARTS_UPPER_RE.match(nextblock.lines[0])):
            ax += 1
            continue
        block.lines[y_offset] = offending + "  " + nextblock.lines[0]
        new_width = (nextblock.x + nextblock.width) - block.x
        block.width = max(block.width, new_width)
        del blocks[ax + 1]
        # the reference's foreach advances past the (now shifted)
        # position either way
        ax += 1
