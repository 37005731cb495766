"""Native PDF front-end tests: real PDF bytes → page XML → spans,
cross-checked against the page-XML fixture path on identical content."""

from __future__ import annotations

import base64

from ray_script_extract.engine.parse_text import parse_pages_xml
from ray_script_extract.engine.pdfdoc import extract_pdf_raw_document
from ray_script_extract.sources.pagexml_fixtures import screenplay_page
from ray_script_extract.sources.pdf_fixtures import (
    build_pdf,
    screenplay_pdf_lines,
)
from ray_script_extract.sources.pdfnative import PdfDocument, pdf_to_page_xml

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
