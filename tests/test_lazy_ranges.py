"""Writer-only state is built on demand, and the block engine's string
shortcuts equal the definitions they replaced.

The extract path reads a ScriptObject's ``type`` and ``content`` only;
its colour and textAttribute ranges and its alignment come from the
``ranges`` thunk the first time a writer reads them.  The properties
below hold the C-level shortcuts of the block engine's front passes and
its text-only join to the regex and loop definitions they replaced.
"""

from __future__ import annotations

import base64
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ray_script_extract.engine import blocks as blocks_mod
from ray_script_extract.engine.blocks import (Block, BlockPiece,
                                              get_likely_indents)
from ray_script_extract.engine.objects import ScriptObject
from ray_script_extract.engine.parse_text import _FULL_TRIM, parse_pages_xml
from ray_script_extract.engine.pdfdoc import convert_pdf_raw_document
from ray_script_extract.functions.textutil import (compress_spaces,
                                                   reduce_spaces,
                                                   strip_color_formatting)
from ray_script_extract.sources.pagexml_fixtures import screenplay_page
from ray_script_extract.sources.pdf_fixtures import build_pdf
from ray_script_extract.stages.extract import ExtractorActor

# spaces, tabs, every other whitespace class, the colour markers
# chr(15)..chr(30), NUL and printable text
_PDF_CHARS = st.sampled_from(
    [" ", "  ", "\t", "\n", "\r", "\f", "\x0b", "\x00", "\xa0", " ",
     "　", "\x1c", "\x1f", "-", "a", "Z", "9", "(", ".", "é"]
    + [chr(c) for c in range(15, 31)])
PDF_TEXT = st.lists(_PDF_CHARS, max_size=40).map("".join)

_WS_RUN = re.compile(r"\s+")
_COLOR_MARKS = re.compile("[" + "".join(chr(i) for i in range(15, 31)) + "]")


@given(PDF_TEXT)
@settings(max_examples=500)
def test_reduce_spaces_is_subsumed_on_the_pdf_path(t):
    assert (compress_spaces(strip_color_formatting(reduce_spaces(t)), True)
            == compress_spaces(strip_color_formatting(t), True))


@given(PDF_TEXT)
@settings(max_examples=500)
def test_printable_shortcuts_equal_the_regex_definitions(t):
    assert strip_color_formatting(t) == _COLOR_MARKS.sub("", t)
    assert compress_spaces(t, True) == _WS_RUN.sub(" ", t)
    assert compress_spaces(t, False) == t


@given(PDF_TEXT)
@settings(max_examples=500)
def test_line_trim_equals_the_anchored_regex(t):
    regex = re.compile(r"^[ \t\n\r\f\x0b\x00]+|[ \t\n\r\f\x0b\x00]+$")
    assert t.strip(_FULL_TRIM) == regex.sub("", t)


_HYPHEN_END = re.compile(r"[A-Za-z0-9]-$")


def _joined_reference(lines):
    """The join get_text_and_colors made, with its regex on the whole
    text so far."""
    result = lines[0]
    for line in lines[1:]:
        if not _HYPHEN_END.search(result):
            result += " "
        result += line
    return result


_LINE = st.lists(st.sampled_from(["a", "-", "7-", " ", "x-", "\n", "é-"]),
                 max_size=5).map("".join)


def _block(lines):
    block = Block(BlockPiece(lines[0], 0, 0, 10, {}, 16, {}, {}))
    for y, line in enumerate(lines[1:], start=1):
        block.combine(BlockPiece(line, 0, y, 10, {7: [{"start": 0,
                                                       "end": len(line)}]},
                                 16, {"b": [{"start": 0, "end": 0}]}, {}))
    return block


@given(st.lists(_LINE, min_size=1, max_size=5))
@settings(max_examples=300)
def test_text_join_equals_the_ranged_join(lines):
    block = _block(lines)
    assert block.text() == _joined_reference(block.lines)
    colors, attrs = block.ranges()
    text = block.text()
    # every shifted range starts where its line sits in the joined text
    starts = sorted(e["start"] for e in colors.get(7, []))
    assert all(text.startswith(line, start) for line, start
               in zip(block.lines[1:], starts))
    assert len(attrs.get("b", [])) == len(block.lines) - 1


def _likely_reference(blocks, kind):
    counts = {}
    for block in blocks:
        if block.kind == kind:
            counts[block.x] = counts.get(block.x, 0) + 1
    if not counts:
        return False
    mx = max(counts.values())
    keys = [k for k in counts if counts[k] == mx]
    return keys[-1] if kind in ("Character", "Dialog") else keys[0]


@given(st.lists(st.tuples(
    st.sampled_from(["Character", "Dialog", "Action", "Slugline", "Unknown",
                     "Text"]), st.integers(0, 5)), max_size=30))
def test_one_pass_indents_equal_the_per_kind_modes(kinds_xs):
    blocks = []
    for kind, x in kinds_xs:
        block = Block(BlockPiece("t", x, 0, 10, {}, 16, {}, {}))
        block.kind = kind
        blocks.append(block)
    kinds = ("Character", "Dialog", "Slugline", "Action", "Unknown")
    assert get_likely_indents(blocks, kinds) == {
        kind: _likely_reference(blocks, kind) for kind in kinds}


# -- ranges on demand ---------------------------------------------------

def _screenplay_pages():
    return [screenplay_page(n, [{
        "slug": f"INT. ROOM {n} - DAY",
        "action": ["Jane enters. We see her smile."],
        "speeches": [("JANE", "(hopeful)", ["I made you some-",
                                            "thing for the road."]),
                     ("MARK", None, ["What is it?"])],
        "transition": "CUT TO:"}]) for n in (1, 2, 3)]


def _raw_pdf():
    filler = [(96 + 24 * k, 108, f"Filler action line {k} with plenty of "
               f"words to exceed the caps.") for k in range(10)]
    return build_pdf([[(72, 108, "INT. LAB - NIGHT")] + filler + [
        (360, 280, "MARA"), (372, 230, "(quietly)"),
        (384, 180, "The lights are out again.", {"color": (0, 0, 1)}),
        (420, 430, "CUT TO:")], [(72, 108, "EXT. ROOF - DAY")] + filler])


def test_extract_path_builds_no_ranges(monkeypatch):
    built = []
    monkeypatch.setattr(blocks_mod.Block, "ranges",
                        lambda self: built.append(self) or ({}, {}))
    records = ExtractorActor().extract_doc("d", [
        *({"kind": "pdf_page_xml", "text": page}
          for page in _screenplay_pages()),
        {"kind": "pdf_raw",
         "text": base64.b64encode(_raw_pdf()).decode()}])
    assert len(records) > 30 and built == []
    # a writer's read builds them
    convert_pdf_raw_document(_raw_pdf())
    assert built


def test_ranges_build_once_and_keep_attribute_order():
    objects = parse_pages_xml(_screenplay_pages())
    lazy = [o for o in objects if o._ranges is not None]
    assert lazy
    for o in lazy:
        attrs = o.attributes
        assert o._ranges is None
        assert list(attrs)[:3] == ["fontSize", "textAttributes",
                                   "numberObject"]
        assert o.attributes is attrs and o.colors is o.colors


@pytest.mark.parametrize("content,pdf_path", [
    ("plain text", True), ("a  b\t\x0fc", True), ("a  b", False),
    ("\x10marked\x1e", False)])
def test_script_object_content_is_unchanged(content, pdf_path):
    o = ScriptObject("Dialog", content, 1, "", pdf_path=pdf_path)
    stripped = _COLOR_MARKS.sub("", content)
    assert o.content == (_WS_RUN.sub(" ", stripped) if pdf_path
                         else stripped)
