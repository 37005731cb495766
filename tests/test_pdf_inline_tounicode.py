"""Inline images (BI/ID/EI, spec 8.9.7) and ToUnicode bfrange forms.

* Inline images must emit the same content-addressed media span shape
  as Do'd Image XObjects, with dims from the abbreviated /W //H keys,
  and must not derail the tokenizer even when the raw sample bytes
  contain parens, backslashes, or embedded "EI" without whitespace
  delimiters.
* ToUnicode bfrange destinations come in three spec forms: scalar
  (increment), multi-unit scalar (increment the LAST code unit —
  ligatures), and array (one destination per code).
"""

from __future__ import annotations

import hashlib
import zlib

from ray_script_extract.sources.pdfnative import (PdfDocument,
                                                  pdf_page_records,
                                                  pdf_to_page_xml)


def _mini_pdf(content: bytes, font_body: bytes = None,
              tounicode: bytes = None) -> bytes:
    """Fixed layout: 1=content, (2=ToUnicode), then font, page,
    pages, catalog.  ``font_body`` may contain the placeholder
    b"{TU}" for the ToUnicode object ref."""
    objs = []

    def add(b: bytes) -> int:
        objs.append(b)
        return len(objs)

    add(b"<< /Length %d >>\nstream\n" % len(content)
        + content + b"\nendstream")
    tu_num = None
    if tounicode is not None:
        data = zlib.compress(tounicode)
        tu_num = add(b"<< /Length %d /Filter /FlateDecode >>\nstream\n"
                     % len(data) + data + b"\nendstream")
    if font_body is None:
        font_body = b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier >>"
    if tu_num is not None:
        font_body = font_body.replace(b"{TU}", b"%d 0 R" % tu_num)
    f = add(font_body)
    p = add(b"<< /Type /Page /Parent %d 0 R /Contents 1 0 R >>"
            % (len(objs) + 2))
    pages = add((f"<< /Type /Pages /Kids [{p} 0 R] /Count 1 "
                 f"/MediaBox [0 0 612 792] "
                 f"/Resources << /Font << /F1 {f} 0 R >> >> >>").encode())
    cat = add(b"<< /Type /Catalog /Pages %d 0 R >>" % pages)
    out = bytearray(b"%PDF-1.4\n")
    offs = []
    for i, body in enumerate(objs, start=1):
        offs.append(len(out))
        out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
    xref = len(out)
    out += f"xref\n0 {len(objs) + 1}\n".encode()
    out += b"0000000000 65535 f \n"
    for o in offs:
        out += f"{o:010d} 00000 n \n".encode()
    out += (f"trailer\n<< /Size {len(objs) + 1} /Root {cat} 0 R >>\n"
            f"startxref\n{xref}\n%%EOF\n").encode()
    return bytes(out)


def _texts(xml: str) -> list:
    import re
    return [re.sub(r"<[^>]+>", "", m)
            for m in __import__("re").findall(
                r"<text [^>]*>(.*?)</text>", xml)]


def test_inline_image_media_span_and_tokenizer_survival():
    # sample bytes deliberately hostile: parens, backslash, an "EI"
    # glued to non-whitespace neighbours
    sample = b"\x00(\\)xEI(\xff\xfe\x01"
    content = (b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (before) Tj ET\n"
               b"q 100 0 0 50 200 300 cm\n"
               b"BI /W 4 /H 2 /BPC 8 /CS /G ID " + sample + b" EI\nQ\n"
               b"BT /F1 12 Tf 1 0 0 1 72 600 Tm (after) Tj ET")
    pdf = _mini_pdf(content)
    (page_media,) = pdf_page_records(pdf)[1]
    assert len(page_media) == 1
    mref = page_media[0]
    assert mref["ref"] == ("img://sha256/"
                           + hashlib.sha256(sample).hexdigest())
    assert (mref["width"], mref["height"]) == (4, 2)
    # CTM 100x50 at (200,300): unit square top = 792-350, left = 200
    assert (mref["top"], mref["left"]) == (792 - 350, 200)
    (xml,) = pdf_to_page_xml(pdf)
    assert _texts(xml) == ["before", "after"]


def test_inline_image_without_dims_defaults_zero():
    content = b"BI ID \x01\x02 EI\nBT /F1 12 Tf (t) Tj ET"
    (page_media,) = pdf_page_records(_mini_pdf(content))[1]
    assert page_media[0]["width"] == 0 and page_media[0]["height"] == 0


_FONT_TU = (b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier "
            b"/ToUnicode {TU} >>")

_CMAP = b"""/CIDInit /ProcSet findresource begin
12 dict begin begincmap
1 begincodespacerange <00> <FF> endcodespacerange
2 beginbfrange
<41> <43> [<0058> <0059> <005A>]
<61> <62> <00660066>
endbfrange
endcmap CMapName currentdict /CMap defineresource pop end end"""


def test_bfrange_array_and_multiunit_scalar():
    content = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (ABCab) Tj ET"
    pdf = _mini_pdf(content, font_body=_FONT_TU, tounicode=_CMAP)
    (xml,) = pdf_to_page_xml(pdf)
    # A,B,C -> X,Y,Z via the array form; a -> "ff" ligature string,
    # b -> "fg" (last unit incremented)
    assert _texts(xml) == ["XYZff" + "fg"]


def test_bfrange_scalar_form_still_increments():
    cmap = (b"1 begincodespacerange <00> <FF> endcodespacerange\n"
            b"1 beginbfrange\n<41> <43> <0058>\nendbfrange")
    pdf = _mini_pdf(b"BT /F1 12 Tf (ABC) Tj ET",
                    font_body=_FONT_TU, tounicode=cmap)
    (xml,) = pdf_to_page_xml(pdf)
    assert _texts(xml) == ["XYZ"]


def test_missing_width_honoured_for_out_of_range_codes():
    # A (65) is in /Widths (600); B (66) is past LastChar and must
    # advance by the descriptor's /MissingWidth, not the Courier-600
    # fallback
    font = (b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
            b"/FirstChar 65 /LastChar 65 /Widths [600] "
            b"/FontDescriptor << /Flags 0 /MissingWidth 300 >> >>")
    pdf = _mini_pdf(b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (AB) Tj (A) Tj ET",
                    font_body=font)
    from ray_script_extract.sources.pdfnative import (PdfDocument,
                                                      _extract_page_runs)
    doc = PdfDocument(pdf)
    (page,) = list(doc.pages())
    runs, _m, _w, _h = _extract_page_runs(doc, page)
    assert abs(runs[0].width - (0.6 + 0.3) * 12) < 1e-9
    assert abs(runs[1].x - (72 + (0.6 + 0.3) * 12)) < 1e-9


def test_missing_width_defaults_to_courier_fallback():
    font = (b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier "
            b"/FirstChar 65 /LastChar 65 /Widths [600] >>")
    pdf = _mini_pdf(b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (AB) Tj ET",
                    font_body=font)
    from ray_script_extract.sources.pdfnative import (PdfDocument,
                                                      _extract_page_runs)
    doc = PdfDocument(pdf)
    (page,) = list(doc.pages())
    runs, _m, _w, _h = _extract_page_runs(doc, page)
    assert abs(runs[0].width - (0.6 + 0.6) * 12) < 1e-9
