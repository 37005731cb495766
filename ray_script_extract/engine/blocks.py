"""The screenplay block engine: block pieces → classified blocks.

A block's kind and text (``Block.text``) are all the extract path
reads, as records projected from the final blocks; its colour and
attribute ranges (``Block.ranges``) are built only when a writer reads
a ScriptObject's ranges.  A one-line block is classified by one memo
lookup (``_one_line_test``) that runs the reference's predicates in
its order.

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
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

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

_SERIES_INDENT_SPACED = re.compile(r"^(\(?[A-Z][.)]\)?[ ]+)")
_SERIES_INDENT_ALONE = re.compile(r"^(\(?[A-Z][.)]\)?)$")
_UPPER_THEN_LOWER = re.compile(r"^[A-Z].*[a-z]")
_PRONOUN_RE = re.compile(r"[^A-Za-z](I|me|my|you|your|yours)[^A-Za-z]", re.I)
# the reference's ([Ww]e see|enters|…|As (she|he|they)), spelled so that
# every alternative starts with a literal: the regex engine then skips
# straight to the places where one of their first letters stands
_ACTION_VERB_RE = re.compile(
    r"We see|we see|enters|faces|looks|smiles|stares|walks|As (?:she|he|they)")
_SENTENCE_END_RE = re.compile(r"[.:?!]$")
_STARTS_UPPER_RE = re.compile(r"^[A-Z]")
_HYPHEN_END_RE = re.compile(r"[A-Za-z0-9]-$")
_TWO_CHARS = 2 * DEFAULT_CHAR_WIDTH


def white_out(text: str) -> str:
    # Every term holds CONT or MORE.  Only the ASCII letters match
    # C, O, N, T, M, R and E under IGNORECASE, so the upper-cased text
    # holds an anchor whenever the pattern can match.
    upper = text.upper()
    if "CONT" not in upper and "MORE" not in upper:
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


class BlockPiece(NamedTuple):
    """One piece of a line, as ``Block`` and ``Block.combine`` take it.
    Its maker trims ``text`` of the reference's trim set; the page
    split makes plain tuples of this shape."""

    text: str
    x: int
    y: int
    width: int
    colors: Dict
    font_size: int
    text_attributes: Dict
    number_object: Dict


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


def _text_test(text: str, probably_dialog: bool) -> str:
    """The last rule of classify_based_on_content: "Paren", else
    "Dialog" after a Character or Paren or on a pronoun, "Action" on an
    action verb, or "Unknown"."""
    if looks_like_parenthetical(text):
        return "Paren"
    if probably_dialog or _PRONOUN_RE.search(text):
        return "Dialog"
    if _ACTION_VERB_RE.search(text):
        return "Action"
    return "Unknown"


# what classify_based_on_content assigns as is, with the sure flag
_SURE_KINDS = frozenset({"Changebar", "Transition", "Horizontal Rule",
                         "Contact Info", "Character", "Paren"})


@lru_cache(maxsize=1 << 16)
def _one_line_test(line: str) -> str:
    """classify_based_on_content's tests on a one-line block after the
    date rule, in the reference's order (ParseText.php:2261-2310): the
    kind of the first that holds, "Character?" for a character line
    without V.O./O.S. notation, else ``_text_test`` as if the block
    before were no Character or Paren.  One memo lookup stands for up to
    nine predicate calls on the same line."""
    if line == "*":
        return "Changebar"
    if looks_like_slugline(line):
        return "Slugline"
    if looks_like_transition(line):
        return "Transition"
    if looks_like_the_end(line):
        return "The End"
    if looks_like_hrule(line):
        return "Horizontal Rule"
    if looks_like_character(line):
        return "Character" if contains_vo_os_notation(line) else "Character?"
    return _text_test(line, False)


class Block:
    __slots__ = ("x", "y", "lines", "width", "height", "kind",
                 "classification_is_unsure",
                 "has_dual_line", "is_dual_line", "colors", "font_size",
                 "text_attributes", "number_object")

    def __init__(self, piece: BlockPiece) -> None:
        (text, self.x, self.y, self.width, colors, self.font_size,
         text_attributes, number_object) = piece
        self.lines: List[str] = [text]
        self.height = 1
        self.kind: Optional[str] = None
        self.classification_is_unsure = False
        self.is_dual_line = False
        self.has_dual_line = False
        self.colors: List[Dict] = [colors]
        self.text_attributes: List[Dict] = [text_attributes]
        self.number_object: Dict = dict(number_object)

    def is_blank(self) -> bool:
        return self.height == 1 and self.lines[0] == ""

    def is_entirely_parens(self) -> bool:
        return (self.lines[0][:1] in ("(", "[")
                and self.lines[-1][-1:] in (")", "]"))

    def is_uppercase_single_line(self) -> bool:
        return self.height == 1 and is_uppercase(self.lines[0])

    def combine(self, piece: BlockPiece) -> None:
        text, x, y, width, colors, font_size, text_attributes, number = piece
        if y == self.y + self.height:
            # series_indent field is never set in the reference → the
            # first branch there is dead
            if x < self.x:
                self.width += self.x - x
            self.lines.append(text)
            self.colors.append(colors)
            self.width = max(self.width, x + width - self.x)
            self.height += 1
            self.font_size = max(self.font_size, font_size)
            self.text_attributes.append(text_attributes)
            if number:
                # "left" and "right" are only ever set to 1
                own = self.number_object
                if "number" not in own and "number" in number:
                    own["number"] = number["number"]
                if "left" in number:
                    own["left"] = 1
                if "right" in number:
                    own["right"] = 1
        # non-adjacent y: the reference hits a disabled assert and the
        # piece is silently dropped (ParseText.php:2037-2051)

    def should_combine(self, piece: BlockPiece, timer: SeriesTimer) -> bool:
        """Whether a non-blank ``piece`` on the line right below this
        non-blank block's last line joins it.  The combine loop makes
        no other call: the reference's should_combine returns False for
        every other pair before any SERIES_TIMER side effect."""
        text, x = piece[0], piece[1]
        if piece[5] != self.font_size:
            return False
        first = self.lines[0]
        if timer.value:
            # SERIES_TIMER side effects happen in PHP evaluation order
            if (timer.get_series_indent(first) > 0 and x == self.x
                    and timer.get_series_indent(text) > 0):
                return False
            si = timer.get_series_indent(first)
            if si > 0 and x == self.x + timer.get_series_indent(first):
                # quirk: `$intervening_blockpiece` is undefined here
                # in the reference, so this branch never rejects
                pass
            elif not (self.x - _TWO_CHARS <= x <= self.x + _TWO_CHARS):
                return False
        elif not (self.x - _TWO_CHARS <= x <= self.x + _TWO_CHARS):
            return False
        single_upper = self.height == 1 and first.upper() == first
        if text[0] in "([":
            if single_upper:
                return False
            p1 = text.find(")")
            p2 = text.find("]")
            n = len(text) - 1
            if (p1 == -1 or p1 == n) and (p2 == -1 or p2 == n):
                return False
        if first[:1] in ("(", "[") and self.lines[-1][-1:] in (")", "]"):
            return False  # entirely parens
        if (x == self.x and single_upper and self.width > 50
                and text.upper() == text and not looks_like_slugline(text)):
            return True
        if looks_like_slugline_or_transition(first):
            return False
        if looks_like_slugline_or_transition(text):
            return False
        if single_upper and _UPPER_THEN_LOWER.search(text):
            return False
        if (self.height == 1 and looks_like_character(first)
                and looks_like_parenthetical(text)):
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
        self.classification_is_unsure = False
        if self.height == 1:
            line = self.lines[0]
            if block_num < 3 and len(line) < 28 and contains_date(line):
                self.kind = "Page Header"
                return
            test = _one_line_test(line)
        elif looks_like_changebar(self.lines):
            test = "Changebar"
        elif looks_like_contact_info(self.lines):
            test = "Contact Info"
        else:
            test = _text_test(self.text(), prev_kind in ("Character", "Paren"))
        if test in _SURE_KINDS:
            self.kind = test
        elif test == "Slugline":
            self.kind = "Slugline"
            old_line = self.lines[0]
            split_slug = old_line.split(" ")
            if looks_like_scene_number(split_slug[0]):
                self.lines[0] = " ".join(split_slug[1:]).strip(_PHP_TRIM)
                self.x += (len(old_line) - len(self.lines[0])) * DEFAULT_CHAR_WIDTH
        elif test == "The End":
            self.kind = "Action"
        elif test == "Character?":
            # quirk: the `$bx == 0 || $prev_kind == "Text"` guard is
            # always TRUE because $bx is undefined (ParseText.php:2292)
            line = self.lines[0]
            self.kind = ("Slugline" if self.x < 8 and is_uppercase(line)
                         else "Character")
            self.classification_is_unsure = True
        else:
            self.classification_is_unsure = True
            self.kind = ("Dialog" if prev_kind in ("Character", "Paren")
                         else test)

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


def kind_counts(blocks: List[Block]) -> Tuple[Dict[str, Dict[int, int]],
                                              Dict[str, Dict[int, int]]]:
    """Per kind, how many blocks stand at each x, the x in order of first
    appearance; and the same for the one-line blocks that look like
    scene numbers."""
    counts: Dict[str, Dict[int, int]] = {}
    scene_numbers: Dict[str, Dict[int, int]] = {}
    for block in blocks:
        kind = block.kind
        x = block.x
        by_x = counts.get(kind)
        if by_x is None:
            counts[kind] = {x: 1}
        else:
            by_x[x] = by_x.get(x, 0) + 1
        line = block.lines[0]
        if (block.height == 1 and line[:1] in _DIGITS
                and looks_like_scene_number(line)):
            by_x = scene_numbers.setdefault(kind, {})
            by_x[x] = by_x.get(x, 0) + 1
    return counts, scene_numbers


def likely_indents(counts: Dict[str, Dict[int, int]],
                   kinds) -> Dict[str, object]:
    """Per kind, the mode of block x; ties go by first appearance: the
    last max key for Character/Dialog, the first for others
    (ParseText.php:1872-1897, get_likely_indent_for).  A kind no block
    has maps to False."""
    likely: Dict[str, object] = {}
    for kind in kinds:
        by_x = counts.get(kind)
        if not by_x:
            likely[kind] = False
        elif kind in ("Character", "Dialog"):
            # max keeps the first of equal keys: the last max key
            likely[kind] = max(reversed(by_x), key=by_x.__getitem__)
        else:
            likely[kind] = max(by_x, key=by_x.__getitem__)
    return likely


def get_likely_indents(blocks: List[Block], kinds) -> Dict[str, object]:
    """``likely_indents`` of the ``kinds`` over ``blocks``."""
    counts: Dict[str, Dict[int, int]] = {kind: {} for kind in kinds}
    for block in blocks:
        by_x = counts.get(block.kind)
        if by_x is not None:
            by_x[block.x] = by_x.get(block.x, 0) + 1
    return likely_indents(counts, kinds)


def prevgen_compute_indents(counts: Dict[str, Dict[int, int]]) -> Dict[str, int]:
    likely = {k: v for k, v in likely_indents(
        counts, ("Character", "Dialog", "Slugline", "Action")).items()
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
_DIGITS = frozenset("0123456789")


def nextgen_compute_indents(counts: Dict[str, Dict[int, int]],
                            scene_numbers: Dict[str, Dict[int, int]]):
    """From ``kind_counts``: the indents of a page with two to four
    levels, else False.  Blocks that look like scene numbers don't
    count (a block of more than one line never does: its text holds a
    space or a hyphen)."""
    # per x, the count of each kind
    by_indent: Dict[int, Dict[str, int]] = {}
    for kind, by_x in counts.items():
        if kind not in _INDENT_KINDS:
            continue
        skip = scene_numbers.get(kind, {})
        for x, n in by_x.items():
            n -= skip.get(x, 0)
            if n:
                by_indent.setdefault(x, {})[kind] = n

    likely: Dict[str, int] = {}
    lkeys = sorted(by_indent.keys())

    def count(kind: str, key) -> int:
        return by_indent[key].get(kind, 0)

    def total(key) -> int:
        return sum(by_indent[key].values())

    if len(lkeys) == 2:
        # quirk kept: all five counters below sample level 0
        # (the reference indexes $lkeys[0] for t1/c1/p1 too)
        s0 = count("Slugline", lkeys[0])
        a0 = count("Action", lkeys[0])
        t1 = count("Transition", lkeys[0])
        c1 = count("Character", lkeys[0])
        p1 = count("Paren", lkeys[0])
        if c1 + p1 == total(lkeys[1]):
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
        if p1 == total(lkeys[1]):
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
        if c3 != 0 and p2 == total(lkeys[2]):
            if p1 == total(lkeys[1]):
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
