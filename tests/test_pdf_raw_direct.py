"""The raw-PDF path never goes through XML, and extracts exactly what
the page-XML round trip gives.

``extract_pdf_raw_document_with_media`` feeds the native front-end's
typed page records (``pdfnative.pdf_page_records``) straight into line
assembly.  The reference it must match is the serializer plus the
``pdf_page_xml`` input path: ``parse_pages_xml(pdf_to_page_xml(raw))``
with the page records' media, ``pdf_page_records(raw)[1]``.  The
differential below runs both on every kind of PDF the suite builds,
plus the edge cases the XML round trip normalizes (line ends, control
characters, markup characters, ``%g``-rounded sizes, nested
bold/italic).
"""

from __future__ import annotations

import base64
import json
import xml.etree.ElementTree as ET
from typing import List, Tuple

import pytest

from ray_script_extract.engine.parse_text import (parse_page_records_full,
                                                  parse_pages_xml_full)
from ray_script_extract.engine.pdfdoc import (convert_pdf_raw_document,
                                              convert_pdf_xml_document,
                                              extract_pdf_raw_document,
                                              extract_pdf_raw_document_with_media)
from ray_script_extract.sources import pdfnative
from ray_script_extract.sources.pdf_fixtures import (build_pdf,
                                                     screenplay_pdf_lines)
from ray_script_extract.sources.pdfnative import (pdf_page_records,
                                                  pdf_to_page_xml)
from tests.helpers import helvetica_font_obj
from tests.test_pdf_encodings import WINANSI_FONT
from tests.test_pdf_inline_tounicode import _CMAP, _FONT_TU, _mini_pdf
from tests.test_pdf_interpreter_fuzz import (_pdf_around, _pdf_with_form,
                                             _random_program,
                                             _rotated_twin_pdf)
from tests.test_pdf_rotation import _one_page_pdf
from tests.test_pdf_type3_tr import _type3_pdf


def _dense(n: int = 10, font: str = "F1") -> list:
    """Enough action lines that a page is not taken for a fly page."""
    return [(96 + 24 * k, 108,
             f"Filler action line {k} with plenty of words to exceed "
             f"the caps.", {"font": font}) for k in range(n)]


def _screenplay(font: str = "F1") -> List[list]:
    f = {"font": font}
    page1 = [(72, 108, "INT. LAB - NIGHT", f)] + _dense(10, font) + [
        (360, 280, "MARA", f), (372, 230, "(quietly)", f),
        (384, 180, "The lights are out again.", f),
        (420, 430, "CUT TO:", f)]
    page2 = [(30, 108, "Draft Three", f), (30, 500, "2.", f),
             (72, 108, "EXT. ROOF - DAY", f),
             (96, 108, "Wind. (CONTINUED)", f),
             (760, 108, "(CONTINUED)", f)]
    return [page1, page2]


_CTRL_TEXT = ["a\rb carriage", "c\r\nd crlf", "ctrl \x01\x02\x1f end",
              "markup & < > \" ' end", "tab\tinside", "nbsp\xa0end"]


def _edge_pages() -> List[list]:
    page1 = [(72, 108, "INT. EDGE - DAY")] + _dense(6) + [
        (300 + 12 * k, 108, text) for k, text in enumerate(_CTRL_TEXT)]
    page2 = [(72, 108, "EXT. EDGE - NIGHT"),
             (96, 108, "Bold and italic", {"font": "F5"}),
             (108, 108, "plain then ", {}),
             (108, 192, "bold", {"font": "F2"}),
             (120, 108, "Oblique words", {"font": "F3"})]
    return [page1, page2]


_BOLD_ITALIC = {"F5": b"<< /Type /Font /Subtype /Type1 "
                      b"/BaseFont /Courier-BoldOblique >>"}
_ENCODINGS = {
    "F4": WINANSI_FONT["F4"],
    "F6": (b"<< /Type /Font /Subtype /Type1 /BaseFont /Times-Roman "
           b"/Encoding /MacRomanEncoding >>"),
    "F7": (b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier "
           b"/Encoding << /Type /Encoding /BaseEncoding /WinAnsiEncoding "
           b"/Differences [65 /quotedblleft /quotedblright /bullet] >> >>"),
}


def _font_named(base_font: bytes) -> dict:
    return {"F4": b"<< /Type /Font /Subtype /Type1 /BaseFont "
                  + base_font + b" >>"}


def _regression_pdfs() -> List[Tuple[str, bytes]]:
    """The real-PDF scenarios of ``tests/regression_docs``: their PDF
    bytes are captured on the way into ``pdf_to_page_xml``."""
    import tests.regression_docs as regression_docs

    captured: List[Tuple[str, bytes]] = []
    original = pdfnative.pdf_to_page_xml
    for name in sorted(dir(regression_docs)):
        if not name.startswith("scenario_"):
            continue

        def capture(raw, name=name):
            captured.append((f"regression:{name}", raw))
            return original(raw)

        pdfnative.pdf_to_page_xml = capture
        try:
            getattr(regression_docs, name)()
        finally:
            pdfnative.pdf_to_page_xml = original
    assert captured
    return captured


def _corpus_pdfs() -> List[Tuple[str, bytes]]:
    """Raw PDFs of the generated ``pdf_heavy`` corpus."""
    from ray_script_extract.corpus import make_doc, size_class_for

    out = []
    for i in range(40):
        for span in make_doc(7, i, size_class_for(i),
                             mix="pdf_heavy")["spans"]:
            if span["kind"] == "pdf_raw":
                out.append((f"corpus:{i}", base64.b64decode(span["text"])))
    return out[:6]


_TR_PROGRAM = (b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (vis) Tj 3 Tr (hid) Tj "
               b"q 7 Tr (clip) Tj Q 0 Tr (vis2) Tj 2 Tr (both) Tj ET")
_INLINE_IMAGE = (b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (before) Tj ET\n"
                 b"q 100 0 0 50 200 300 cm\n"
                 b"BI /W 4 /H 2 /BPC 8 /CS /G ID \x00(\\)xEI(\xff\xfe\x01"
                 b" EI\nQ\nBT /F1 12 Tf 1 0 0 1 72 600 Tm (after) Tj ET")
# sizes and a page height that ``%g`` rounds, an empty Tj, a TJ with
# kerning and an empty string inside it
_ODD_SIZES = (b"BT /F1 12.3456789 Tf 1 0 0 1 72.25 700.5 Tm (odd size) Tj "
              b"() Tj [(kern) -250.5 () 120 (ed)] TJ "
              b"/F1 9.99999949 Tf 0 -13.3333 Td (tiny) Tj "
              b"/F1 17.9999997 Tf 0 -20 Td (px edge) Tj "
              b"/F1 10.5 Tf 0 -14 Td (snap) Tj ET")
_UNPRINTABLE_TU = (b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier "
                   b"/ToUnicode {TU} >>")
_UNPRINTABLE_CMAP = (b"begincmap\n3 beginbfchar\n<41> <0001>\n<42> <FFFE>\n"
                     b"<43> <D800>\nendbfchar\nendcmap\n")


def _pdfs() -> List[Tuple[str, bytes]]:
    cases: List[Tuple[str, bytes]] = []
    add = cases.append
    # fixture builder variants
    screenplay = _screenplay()
    add(("fixture:flate", build_pdf(screenplay)))
    add(("fixture:uncompressed", build_pdf(screenplay, compress=False)))
    add(("fixture:objstm", build_pdf(screenplay, objstm=True)))
    add(("fixture:a4", build_pdf(screenplay, page_w=595.2756,
                                 page_h=841.8898)))
    add(("fixture:odd-height", build_pdf(screenplay, page_h=792.1234567)))
    for mode in ("rc4-40", "rc4-128", "aesv2", "aes256"):
        add((f"fixture:encrypt-{mode}", build_pdf(screenplay,
                                                  encrypt=mode)))
    add(("fixture:type0", build_pdf(screenplay, type0=True)))
    cid = [[(72, 108, "INT. LAB - NIGHT", {"cid": True}),
            (96, 108, "機械は動く。", {"cid": True})], _dense()]
    add(("fixture:ucs2-cmap", build_pdf(cid, type0=True,
                                        cid_cmap="/UniJIS-UCS2-H")))
    legacy = [[(72, 108, "INT. LAB - NIGHT",
                {"cid": True, "cid_encoding": "cp932"}),
               (96, 108, "機械は動く。",
                {"cid": True, "cid_encoding": "cp932"})], _dense()]
    add(("fixture:legacy-cmap", build_pdf(legacy, type0=True,
                                          cid_cmap="/90ms-RKSJ-H")))
    add(("fixture:images", build_pdf(
        screenplay, images=[[{"data": b"\xff\xd8jpeg", "w": 4, "h": 2,
                              "x": 200, "y": 300, "dw": 100, "dh": 50}],
                            [{"data": b"\x00\x10fax", "w": 8, "h": 2,
                              "x": 72, "y": 72, "dw": 80, "dh": 20,
                              "filter": "ccitt"}]])))
    for widths in (False, True):
        add((f"fixture:helvetica-widths-{widths}", build_pdf(
            _screenplay("F4"),
            extra_fonts={"F4": helvetica_font_obj(embed_widths=widths)})))
    add(("fixture:colors", build_pdf([
        [(72, 108, "INT. LAB - NIGHT")] + _dense(6) + [
            (300, 108, "Blue revision line.", {"color": (0, 0, 1)}),
            (312, 108, "Pink revision line.", {"color": (1, 0.5, 0.75)})],
        [(30, 108, "Blue Draft", {"color": (0, 0, 1)}),
         (72, 108, "EXT. ROOF - DAY", {"color": (0, 0, 1)})]])))
    add(("fixture:spacing", build_pdf([
        [(72, 108, "INT. LAB - NIGHT")] + _dense(6) + [
            (300, 108, "justified words here",
             {"char_spacing": 0.5, "word_spacing": 3, "hscale": 90})],
        _dense(3)])))
    add(("fixture:screenplay-lines", build_pdf([
        screenplay_pdf_lines([{"slug": "INT. HALL - DAY",
                               "action": ["A long action line that fills."],
                               "speeches": [("MARA", "(beat)",
                                             ["Hello there."])],
                               "transition": "CUT TO:"}]),
        _dense()])))
    # the generated corpus and the regression goldens' real PDFs
    cases += _corpus_pdfs()
    cases += _regression_pdfs()
    # interpreter fuzz seeds, their rotated twins and Form-XObject nests
    for seed in range(25):
        content, _ = _random_program(seed)
        add((f"fuzz:{seed}", _pdf_around(content)))
    for seed in range(6):
        content, _ = _random_program(seed)
        for rot in (90, 180, 270):
            add((f"fuzz-rotated:{seed}:{rot}",
                 _rotated_twin_pdf(content, rot)))
    for seed in range(8):
        content, _ = _random_program(seed)
        for nest in (1, 3):
            add((f"fuzz-form:{seed}:{nest}", _pdf_with_form(content, nest)))
    for rot in (0, 90, 180, 270):
        add((f"rotate:{rot}", _one_page_pdf(
            b"BT /F1 12 Tf 0 1 -1 0 88 100 Tm (Hi) Tj (yo) Tj ET", rot)))
    # Type3 fonts and render modes
    add(("type3", _type3_pdf(
        b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (ABBA) Tj ET")))
    add(("type3:default-matrix", _type3_pdf(
        b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (AB) Tj ET",
        font_matrix="0.001 0 0 0.001 0 0", widths="600 400")))
    add(("render-modes", _pdf_around(_TR_PROGRAM)))
    # encodings, ToUnicode maps and inline images
    add(("encodings", build_pdf([
        [(72, 108, "INT. LAB - NIGHT")] + _dense(6) + [
            (300, 108, "\x93curly\x94 \x96 dash", {"font": "F4"}),
            (312, 108, "accents \x8e\x8f\x87", {"font": "F6"}),
            (324, 108, "ABC remapped", {"font": "F7"})],
        _dense(3)], extra_fonts=_ENCODINGS)))
    add(("tounicode", _mini_pdf(
        b"BT /F1 12 Tf 1 0 0 1 72 700 Tm <0102030405> Tj ET",
        font_body=_FONT_TU, tounicode=_CMAP)))
    add(("tounicode:unprintable", _mini_pdf(
        b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (xAyBzC) Tj ET",
        font_body=_UNPRINTABLE_TU, tounicode=_UNPRINTABLE_CMAP)))
    add(("inline-image", _mini_pdf(_INLINE_IMAGE)))
    # what the XML round trip normalizes
    add(("edge:text", build_pdf(_edge_pages(), extra_fonts=_BOLD_ITALIC)))
    add(("edge:sizes", _mini_pdf(_ODD_SIZES)))
    for base_font in (b"/Foo#22Bar", b"/Cour#01ier", b"/A#26B#3CC#09D"):
        add((f"font-name:{base_font.decode()}", build_pdf(
            _screenplay("F4"), extra_fonts=_font_named(base_font))))
    return cases


CASES = _pdfs()


def _objects(objects) -> list:
    return [(o.type, o.content, o.page_num, o.given_page_num, o.colors,
             o.attributes) for o in objects]


def _state(state) -> dict:
    return {
        "lines": [(lo.text, lo.x, lo.width, lo.given_page_num,
                   lo.line_colors, lo.line_font_size,
                   lo.line_text_attributes, lo.line_number_object)
                  for lo in state.line_objects],
        "fonts": state.fonts,
        "colors": state.colors.color_id_array,
        "header_objects": state.header_objects,
        "footer_objects": state.footer_objects,
        "continued": (state.scene_continued_top,
                      state.scene_continued_bottom,
                      state.scene_continued_number),
        "page_size": state.page_size,
    }


@pytest.mark.parametrize("name,raw", CASES, ids=[name for name, _ in CASES])
def test_raw_path_equals_xml_reference(name, raw):
    pages = pdf_to_page_xml(raw)
    ref_objects, ref_state = parse_pages_xml_full(pages)
    objects, media = extract_pdf_raw_document_with_media(
        base64.b64encode(raw).decode("ascii"))
    assert _objects(objects) == _objects(ref_objects)
    assert media == pdf_page_records(raw)[1]
    _, state = parse_page_records_full(pdf_page_records(raw)[0])
    assert _state(state) == _state(ref_state)
    assert (json.dumps(convert_pdf_raw_document(raw))
            == json.dumps(convert_pdf_xml_document(pages)))


def test_differential_corpus_covers_text_and_every_source():
    """The differential is not vacuous: most cases extract text, and
    every PDF source above contributes."""
    with_lines = sum(1 for _, raw in CASES
                     if any(p.fragments for p in pdf_page_records(raw)[0]))
    assert with_lines >= len(CASES) - 2
    prefixes = {name.split(":")[0] for name, _ in CASES}
    assert {"fixture", "corpus", "regression", "fuzz", "fuzz-rotated",
            "fuzz-form", "type3", "render-modes", "encodings",
            "inline-image", "edge", "font-name"} <= prefixes


def test_edge_text_survives_as_the_xml_round_trip_gives_it():
    (page1, page2), _ = pdf_page_records(dict(CASES)["edge:text"])
    values = [f.value for f in page1.fragments]
    assert "a\nb carriage" in values and "c\nd crlf" in values
    assert "ctrl  end" in values and "markup & < > \" ' end" in values
    styled = {f.value: f.text_attrs for f in page2.fragments}
    # bold+italic keeps only the outer <b> range, as the reference reads
    # pdftohtml's <b><i>…</i></b>
    assert styled["Bold and italic"] == {"b": [{"start": 0, "end": 14}]}
    assert styled["Oblique words"] == {"i": [{"start": 0, "end": 12}]}
    assert styled["plain then "] is None


@pytest.mark.parametrize("base_font", [b"/Foo#22Bar", b"/Cour#01ier",
                                       b"/A#26B#3CC#09D"])
def test_font_name_with_markup_or_control_bytes(base_font):
    """A /BaseFont whose family holds a quote, a control byte or other
    markup used to make the page XML malformed, so the whole document
    failed on both paths."""
    raw = build_pdf(_screenplay("F4"), extra_fonts=_font_named(base_font))
    for page in pdf_to_page_xml(raw):
        ET.fromstring(page)
    objects = extract_pdf_raw_document(base64.b64encode(raw).decode("ascii"))
    assert [o.content for o in objects][:2] == [
        "INT. LAB - NIGHT",
        "Filler action line 0 with plenty of words to exceed the caps."]


def test_raw_path_uses_no_xml(monkeypatch):
    """Neither the serializer nor an XML parser is reachable from the
    raw-PDF extraction path or the CLI's PDF conversion."""
    import xml.etree.ElementTree as element_tree

    from ray_script_extract.engine import pagexml, parse_text

    raw = build_pdf(_screenplay())
    expected = _objects(parse_pages_xml_full(pdf_to_page_xml(raw))[0])
    expected_json = convert_pdf_xml_document(pdf_to_page_xml(raw))

    def forbidden(*args, **kwargs):
        raise AssertionError("XML on the raw-PDF path")

    monkeypatch.setattr(element_tree, "fromstring", forbidden)
    monkeypatch.setattr(element_tree, "XMLParser", forbidden)
    monkeypatch.setattr(pdfnative, "pdf_to_page_xml_and_media", forbidden)
    monkeypatch.setattr(pagexml, "process_page_xml", forbidden)
    monkeypatch.setattr(parse_text, "process_page_xml", forbidden)
    objects, media = extract_pdf_raw_document_with_media(
        base64.b64encode(raw).decode("ascii"))
    assert _objects(objects) == expected
    assert media == [[], []]
    assert convert_pdf_raw_document(raw) == expected_json


def test_cli_converts_pdf_without_xml(monkeypatch, tmp_path, capsys):
    from ray_script_extract import cli

    raw = build_pdf(_screenplay())
    path = tmp_path / "script.pdf"
    path.write_bytes(raw)
    expected = convert_pdf_xml_document(pdf_to_page_xml(raw))

    def forbidden(*args, **kwargs):
        raise AssertionError("XML on the CLI's PDF path")

    monkeypatch.setattr(pdfnative, "pdf_to_page_xml_and_media", forbidden)
    monkeypatch.setattr(ET, "fromstring", forbidden)
    assert cli.main(["convert", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == expected
