"""Native PDF front-end tests: real PDF bytes → page XML → spans,
cross-checked against the page-XML fixture path on identical content."""

from __future__ import annotations

import base64
import re

import pytest

from ray_script_extract.engine.parse_text import parse_pages_xml
from ray_script_extract.engine.pdfdoc import extract_pdf_raw_document
from ray_script_extract.sources.pagexml_fixtures import screenplay_page
from ray_script_extract.sources.pdf_fixtures import (
    build_pdf,
    screenplay_pdf_lines,
)
from ray_script_extract.sources.pdfnative import (PdfDocument,
                                                  pdf_page_records,
                                                  pdf_to_page_xml)

SCENES_1 = [{
    "slug": "INT. KITCHEN - DAY",
    "action": ["Jane enters. We see her smile.",
               "She opens the oven and pulls out a cake."],
    "speeches": [("JANE", "(hopeful)", ["I made you something.",
                                        "It took me all day."]),
                 ("MARK (V.O.)", None, ["What is it? Tell me now."]),
                 ("JANE", None, ["You will have to wait and see.",
                                 "I promise it is worth the wait."])],
    "transition": "CUT TO:",
}, {
    "slug": "EXT. GARDEN - NIGHT",
    "action": ["Mark walks outside to the cold."],
    "speeches": [("MARK", None, ["I wonder what she made today."])],
}]
SCENES_2 = [{
    "slug": "INT. DINING ROOM - LATER",
    "action": ["The cake sits on the table."],
    "speeches": [("JANE", "(beaming)", ["Surprise!"])],
}]


def _spans(objs):
    return [(o.get_type_json(), o.content) for o in objs]


def test_pdf_roundtrip_matches_pagexml_path():
    """The same screenplay through (a) authored page XML and (b) a real
    compressed PDF must produce identical span sequences."""
    via_xml = parse_pages_xml([screenplay_page(1, SCENES_1),
                               screenplay_page(2, SCENES_2)])
    pdf = build_pdf([screenplay_pdf_lines(SCENES_1),
                     screenplay_pdf_lines(SCENES_2)], compress=True)
    via_pdf = parse_pages_xml(pdf_to_page_xml(pdf))
    assert _spans(via_pdf) == _spans(via_xml)
    assert ("Scene", "INT. KITCHEN - DAY") in _spans(via_pdf)


def test_pdf_uncompressed_stream():
    pdf = build_pdf([screenplay_pdf_lines(SCENES_1)], compress=False)
    pages = pdf_to_page_xml(pdf)
    assert len(pages) == 1
    assert "INT. KITCHEN - DAY" in pages[0]


def test_pdf_two_level_page_tree_order():
    """build_pdf splits >1 page into two /Pages kid nodes; traversal
    must preserve document order and inherit MediaBox/Resources."""
    pdf = build_pdf([[(72, 108, f"Page {i} line one.")] for i in range(4)])
    doc = PdfDocument(pdf)
    pages = doc.pages()
    assert len(pages) == 4
    assert all("/MediaBox" in p and "/Resources" in p for p in pages)
    xmls = pdf_to_page_xml(pdf)
    for i, xml in enumerate(xmls):
        assert f"Page {i} line one." in xml


def test_pdf_a4_detection():
    pdf = build_pdf([[(72, 108, "Hello there from A4 land.")]],
                    page_w=595, page_h=842)
    assert 'height="842"' in pdf_to_page_xml(pdf)[0]


def test_pdf_raw_base64_entry_point():
    pdf = build_pdf([screenplay_pdf_lines(SCENES_1),
                     screenplay_pdf_lines(SCENES_2)])
    objs = extract_pdf_raw_document(base64.b64encode(pdf).decode("ascii"))
    assert ("Scene", "EXT. GARDEN - NIGHT") in _spans(objs)


def test_pdf_tj_array_kerning():
    """TJ with kerning numbers shows adjacent strings as one run each,
    at advancing x positions."""
    content = (b"BT /F1 12 Tf 1 0 0 1 108 704 Tm "
               b"[(Hello) -500 (World)] TJ ET")
    import zlib
    body = (f"<< /Length {len(content)} >>\n".encode()
            + b"stream\n" + content + b"\nendstream")
    # minimal single-page doc
    pdf = (b"%PDF-1.4\n"
           b"1 0 obj\n<< /Type /Font /Subtype /Type1 /BaseFont /Courier >>\nendobj\n"
           b"2 0 obj\n" + body + b"\nendobj\n"
           b"3 0 obj\n<< /Type /Page /Parent 4 0 R /Contents 2 0 R >>\nendobj\n"
           b"4 0 obj\n<< /Type /Pages /Kids [3 0 R] /Count 1 "
           b"/MediaBox [0 0 612 792] /Resources << /Font << /F1 1 0 R >> >> >>\nendobj\n"
           b"5 0 obj\n<< /Type /Catalog /Pages 4 0 R >>\nendobj\n"
           b"trailer\n<< /Size 6 /Root 5 0 R >>\n%%EOF\n")
    pages = pdf_to_page_xml(pdf)
    assert len(pages) == 1
    assert ">Hello<" in pages[0] and ">World<" in pages[0]
    # second run starts after Hello's advance plus the kerning shift
    import re
    lefts = [int(m) for m in re.findall(r'left="(\d+)"', pages[0])]
    assert lefts[0] == 108 and lefts[1] > lefts[0]


def test_reference_example_pdf_real_world():
    """The reference repo's actual example.pdf (Chromium-style flipped
    CTM, per-glyph Tj with Td kerning, hex strings + ToUnicode)
    converts through the native front-end in correct reading order."""
    raw = open("/root/reference/example.pdf", "rb").read()
    objs = parse_pages_xml(pdf_to_page_xml(raw))
    body = [(o.get_type_json(), o.content) for o in objs if o.content]
    assert body[0] == ("Title", "Example Title")
    assert body[1] == ("Text", "By")
    assert body[2] == ("Author", "Example Author")
    kinds = [k for k, _ in body]
    texts = [t for _, t in body]
    assert ("Scene", "INT. EXAMPLE SCENE - DAY") in body
    assert ("Character", "MRS. EXAMPLE") in body
    assert ("Dialogue", "I am saying example dialogue.") in body
    assert ("Parens", "(parens)") in body
    assert ("Transition", "FADE TO:") in body
    assert ("Character", "MRS. EXAMPLE (V.O.)") in body
    # title page precedes the first scene; scene precedes its dialog
    assert texts.index("Example Title") < texts.index("INT. EXAMPLE SCENE - DAY")
    assert (texts.index("INT. EXAMPLE SCENE - DAY")
            < texts.index("I am saying example dialogue."))


def test_font_built_once_per_font_dict(monkeypatch):
    """Every page and Form XObject of a document shares one ``_Font``
    per font dict: a 3-page, 3-font document builds 3, not 9."""
    from ray_script_extract.sources import pdfnative

    built = []
    original = pdfnative._Font.__init__

    def counting(self, doc, font_dict):
        built.append(id(font_dict))
        original(self, doc, font_dict)

    monkeypatch.setattr(pdfnative._Font, "__init__", counting)
    pdf = build_pdf([screenplay_pdf_lines(SCENES_1),
                     screenplay_pdf_lines(SCENES_2),
                     screenplay_pdf_lines(SCENES_1)])
    pdfnative.pdf_page_records(pdf)
    assert len(built) == len(set(built)) == 3


# -- the object scan steps from object to object ------------------------
# ``N G obj`` text inside a stream body or a string is data, not an
# object header: before the scan stepped over object bodies, it
# redefined object 1 (the Courier font) from a content stream's text.

def _before_xref(pdf: bytes, extra: bytes) -> bytes:
    """``pdf`` with ``extra`` objects spliced in after its last object
    (the scan ignores xref offsets)."""
    at = pdf.rindex(b"xref")
    return pdf[:at] + extra + pdf[at:]


def _font_names(doc: PdfDocument):
    return {num: obj.get("/BaseFont") for num, obj in doc.objects.items()
            if isinstance(obj, dict) and obj.get("/Type") == "/Font"}


def test_object_header_in_a_stream_body_defines_nothing():
    from ray_script_extract.sources.pdfnative import pdf_page_records

    pdf = build_pdf([[(72, 108, "INT. HOUSE - DAY"),
                      (96, 108, "see 1 0 obj here")]], compress=False)
    assert b"(see 1 0 obj here)" in pdf
    pages, _media = pdf_page_records(pdf)
    assert [f.value for f in pages[0].fragments] == [
        "INT. HOUSE - DAY", "see 1 0 obj here"]
    assert _font_names(PdfDocument(pdf))[1] == "/Courier"


def test_trailer_in_a_stream_body_is_no_trailer():
    """``trailer`` text inside a content stream named an /Encrypt dict
    and failed the document."""
    from ray_script_extract.sources.pdfnative import pdf_page_records

    line = "see trailer << /Encrypt 1 0 R >> here"
    pdf = build_pdf([[(72, 108, "INT. HOUSE - DAY"), (96, 108, line)]],
                    compress=False)
    pages, _media = pdf_page_records(pdf)
    assert [f.value for f in pages[0].fragments] == ["INT. HOUSE - DAY",
                                                     line]


@pytest.mark.parametrize("line", [
    "see endstream 1 0 obj here",
    "see endstream trailer << /Encrypt 1 0 R >> here",
])
def test_endstream_text_in_a_stream_body_ends_nothing(line):
    """A body that holds ``endstream`` text ends at its direct /Length,
    not at that text, so what follows it in the body is still data."""
    from ray_script_extract.sources.pdfnative import pdf_page_records

    pdf = build_pdf([[(72, 108, "INT. HOUSE - DAY"), (96, 108, line)]],
                    compress=False)
    pages, _media = pdf_page_records(pdf)
    assert [f.value for f in pages[0].fragments] == ["INT. HOUSE - DAY",
                                                     line]
    assert _font_names(PdfDocument(pdf))[1] == "/Courier"


@pytest.mark.parametrize("line", [
    "see endstream 1 0 obj here",
    "see endstream trailer here",
])
def test_endstream_text_in_a_body_with_indirect_length_ends_nothing(line):
    """A body whose /Length is an indirect ref (its object comes after
    the stream, so the scan cannot resolve it there) ends at the
    ``endstream`` that closes the object, not at ``endstream`` text."""
    import re

    from ray_script_extract.sources.pdfnative import pdf_page_records

    direct = build_pdf([[(72, 108, "INT. HOUSE - DAY"), (96, 108, line)]],
                       compress=False)
    (length,) = re.findall(rb"/Length (\d+)", direct)
    indirect = _before_xref(
        direct.replace(b"/Length " + length, b"/Length 99 0 R"),
        b"99 0 obj " + length + b" endobj\n")
    assert pdf_page_records(indirect) == pdf_page_records(direct)
    assert [f.value for f in pdf_page_records(direct)[0][0].fragments] == [
        "INT. HOUSE - DAY", line]


def test_object_header_in_a_string_defines_nothing():
    pdf = _before_xref(build_pdf([screenplay_pdf_lines(SCENES_1)]),
                       b"90 0 obj\n<< /Title (a 2 0 obj b) >>\nendobj\n")
    doc = PdfDocument(pdf)
    assert doc.objects[90] == {"/Title": b"a 2 0 obj b"}
    assert _font_names(doc)[2] == "/Courier-Bold"


def test_endobj_text_in_a_string_ends_nothing():
    pdf = _before_xref(build_pdf([screenplay_pdf_lines(SCENES_1)]),
                       b"90 0 obj\n<< /Title (a endobj 2 0 obj b) >>\n"
                       b"endobj\n")
    doc = PdfDocument(pdf)
    assert doc.objects[90] == {"/Title": b"a endobj 2 0 obj b"}
    assert _font_names(doc)[2] == "/Courier-Bold"


def test_unclosed_string_stops_at_its_endobj():
    """An object whose string never closes does not swallow the objects
    after it."""
    pdf = _before_xref(build_pdf([screenplay_pdf_lines(SCENES_1)]),
                       b"90 0 obj\n<< /Title (never closed >>\nendobj\n"
                       b"91 0 obj\n<< /Kept true >>\nendobj\n")
    assert PdfDocument(pdf).objects[91] == {"/Kept": True}


def test_incremental_update_redefinition_wins():
    pdf = build_pdf([screenplay_pdf_lines(SCENES_1)]) + (
        b"2 0 obj\n<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>"
        b"\nendobj\n%%EOF\n")
    assert _font_names(PdfDocument(pdf))[2] == "/Helvetica"


# -- damaged documents: what a bit flip can make of a font or an operand --
# Each damaged file must read as its intact neighbour reads: a font
# resource that is no dict as an unknown font name, a float-reading
# operator given a non-number as an absent operator.

_LINES = [(72, 108, "INT. HOUSE - DAY", {"color": (1, 0, 0)}),
          (96, 108, "Jane waits by the door.", {"font": "F4"}),
          (120, 108, "She opens it.")]


def _with_content(pdf: bytes, old: bytes, new: bytes) -> bytes:
    """Uncompressed one-page ``pdf`` with ``old`` replaced by ``new`` in
    its content stream, the stream's /Length rewritten."""
    m = next(m for m in re.finditer(
        rb"<< /Length (\d+) >>\nstream\n(.*?)\nendstream", pdf, re.S)
        if old in m.group(2))
    data = m.group(2).replace(old, new)
    return (pdf[:m.start()] + b"<< /Length %d >>\nstream\n" % len(data)
            + data + b"\nendstream" + pdf[m.end():])


@pytest.mark.parametrize("body", [
    b"42", b"null", b"/Courier", b"[1 2]", b"foo",
    b"<< /Length 3 >>\nstream\nabc\nendstream"],
    ids=["int", "null", "name", "array", "keyword", "stream"])
def test_font_resource_that_is_no_dict_selects_no_font(body):
    damaged = build_pdf([_LINES], compress=False, extra_fonts={"F4": body})
    unknown = _with_content(damaged, b"/F4 ", b"/F9 ")
    assert pdf_page_records(damaged) == pdf_page_records(unknown)
    pages, _ = pdf_page_records(damaged)
    assert [f.value for f in pages[0].fragments] == [
        "INT. HOUSE - DAY", "She opens it."]


def test_font_resources_that_are_no_dict_select_no_font():
    pdf = build_pdf([_LINES], compress=False, extra_fonts={"F4": b"null"})
    pdf = pdf.replace(b"/Font << /F1", b"/Font 7 /Unused << /F1")
    pages, _ = pdf_page_records(pdf)
    assert pages[0].fragments == []


@pytest.mark.parametrize("operands", [b"}", b"/X", b"(x)", b"[1]", b"<< >>",
                                      b"1 /X", b"1 null"])
@pytest.mark.parametrize("op", [b"g", b"rg", b"Td", b"Tc", b"Tz", b"Tr",
                                b"cm"])
def test_float_operator_with_a_non_number_is_skipped(op, operands):
    pdf = build_pdf([_LINES], compress=False,
                    extra_fonts={"F4": b"<< /Type /Font /Subtype /Type1 "
                                       b"/BaseFont /Courier >>"})
    skipped = pdf_page_records(pdf)
    damaged = _with_content(pdf, b"\nET", b"\n" + operands + b" " + op
                            + b"\nET")
    assert pdf_page_records(damaged) == skipped
    # the same operator before the text: the text reads as without it
    damaged = _with_content(pdf, b"BT\n", b"BT\n" + operands + b" " + op
                            + b"\n")
    assert pdf_page_records(damaged) == skipped


@pytest.mark.parametrize("operation", [
    b"/F2 (x) Tf", b"/F2 /X Tf", b"/F2 null Tf", b"/F2 [1] Tf",
    b"[1] 12 Tf", b"<< >> 12 Tf", b'(x) 1 (s) "', b'1 /X (s) "',
    b'null 1 (s) "'])
def test_font_and_spacing_operators_with_bad_operands_are_skipped(
        operation):
    pdf = build_pdf([_LINES[:1] + _LINES[2:]], compress=False)
    skipped = pdf_page_records(pdf)
    damaged = _with_content(pdf, b"\nET", b"\n" + operation + b"\nET")
    assert pdf_page_records(damaged) == skipped
    damaged = _with_content(pdf, b"BT\n", b"BT\n" + operation + b"\n")
    assert pdf_page_records(damaged) == skipped
