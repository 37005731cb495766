"""Text-state spacing operators Tc / Tw / Tz / " (PDF spec 9.3-9.4):
justified text from word processors positions fragments with word/char
spacing and horizontal scaling, so the advance arithmetic must apply
((w0/1000)*Tfs + Tc + Tw*is_space)*Th or every following fragment on
the line lands at the wrong x — breaking the reference's gap→spaces
reconstruction (ParseText.php:515-524).

Every expected coordinate is HAND-COMPUTED inline from Courier-600 or
the Helvetica AFM numbers; never read back from the engine.
"""

from __future__ import annotations

import re

from ray_script_extract.sources.pdf_fixtures import build_pdf
from ray_script_extract.sources.pdfnative import pdf_to_page_xml
from tests.helpers import helvetica_font_obj

HELV = {"F4": helvetica_font_obj(embed_widths=False)}


def _text_attrs(xml: str):
    return [dict(re.findall(r'(\w+)="([^"]*)"', m)) |
            {"text": re.sub(r"<[^>]+>", "", m2)}
            for m, m2 in re.findall(r"<text ([^>]*)>(.*?)</text>", xml)]


def test_char_spacing_widens_advance():
    # Courier "Hi!" at 12pt: 3*600/1000*12 = 21.6; Tc=2 adds 2 per
    # shown code: 21.6 + 3*2 = 27.6 -> round 28 (vs 22 without).
    pdf = build_pdf([[(72, 100, "Hi!", {"char_spacing": 2}),
                      (96, 100, "Hi!")]])
    a, b = _text_attrs(pdf_to_page_xml(pdf)[0])
    assert a["width"] == "28"
    assert b["width"] == "22"  # state reset emitted for line 2


def test_word_spacing_counts_only_spaces():
    # Courier "a b c" at 12pt: 5*7.2 = 36; Tw=5 adds 5 per 0x20 byte
    # (two spaces): 46 exactly.
    pdf = build_pdf([[(72, 100, "a b c", {"word_spacing": 5})]])
    (t,) = _text_attrs(pdf_to_page_xml(pdf)[0])
    assert t["width"] == "46"


def test_horizontal_scaling_multiplies():
    # Courier "MM" at 12pt: 2*7.2 = 14.4; Tz 50 halves it -> 7.2 -> 7.
    pdf = build_pdf([[(72, 100, "MM", {"hscale": 50})]])
    (t,) = _text_attrs(pdf_to_page_xml(pdf)[0])
    assert t["width"] == "7"


def test_spacing_composes_with_proportional_metrics():
    # Helvetica "Hi" = (722+222)/1000*12 = 11.328 (AFM: lowercase i
    # advances 222); Tc=1 (no space so Tw moot), Tz=200:
    # (11.328 + 2*1) * 2 = 26.656 -> 27.
    pdf = build_pdf([[(72, 100, "Hi", {"font": "F4", "char_spacing": 1,
                                       "hscale": 200})]],
                    extra_fonts=HELV)
    (t,) = _text_attrs(pdf_to_page_xml(pdf)[0])
    assert t["width"] == "27"


def test_justified_fragments_rejoin_on_one_line():
    """The motivating case: a justified writer splits one sentence in
    two Tj fragments and stretches the first with Tw.  The second
    fragment's x comes from the first's Tw-widened advance, so the
    assembled line must carry exactly the gap the geometry implies.
    First fragment "Spread out words" at 108, Tw=6: Courier 16 codes
    *7.2 = 115.2, +2 spaces*6 = 127.2 -> right edge 235.2.  Second at
    250 -> gap 14.8 -> floor(14.8/7) = 2 spaces."""
    from ray_script_extract.engine.pagexml import DocState, process_page_xml

    pdf = build_pdf([[(72, 108, "Spread out words", {"word_spacing": 6}),
                      (72, 250, "joined afterwards")]])
    state = DocState()
    process_page_xml(pdf_to_page_xml(pdf)[0], state)
    texts = [lo.text for lo in state.line_objects
             if lo.text not in ("", "\f")]
    assert texts == ["Spread out words  joined afterwards"]


def test_double_quote_op_sets_spacing_and_advances_line():
    """The \" operator: aw ac string — sets Tw/Tc then shows on the
    next line.  12 TL leading, aw=4 ac=1: "a a" = 3 codes * 7.2 +
    3*1 (Tc per code) + 1*4 (Tw per space) = 28.6 -> 29, placed one
    leading below the Tm line."""
    content = (b"BT /F1 12 Tf 12 TL 1 0 0 1 100 708 Tm "
               b'4 1 (a a) " ET')
    (t,) = _text_attrs(pdf_to_page_xml(_pdf_with_content(content))[0])
    # Tm put the origin at y=708 -> top = 792-708-16 = 68; the "
    # advances one 12pt leading first -> y=696 -> top 80
    assert (t["top"], t["left"], t["width"]) == ("80", "100", "29")
    assert t["text"] == "a a"


def _pdf_with_content(content: bytes) -> bytes:
    """Minimal classic-xref one-page PDF around a raw content stream."""
    objs = []

    def add(b: bytes) -> int:
        objs.append(b)
        return len(objs)

    stream = (b"<< /Length %d >>\nstream\n" % len(content)
              + content + b"\nendstream")
    c = add(stream)
    f = add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier >>")
    p = add((f"<< /Type /Page /Parent 4 0 R /Contents {c} 0 R >>"
             ).encode())
    pages = add((f"<< /Type /Pages /Kids [{p} 0 R] /Count 1 "
                 f"/MediaBox [0 0 612 792] "
                 f"/Resources << /Font << /F1 {f} 0 R >> >> >>").encode())
    cat = add(f"<< /Type /Catalog /Pages {pages} 0 R >>".encode())
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


def test_text_rise_shifts_baseline():
    """Ts shifts the baseline in text space: a +4 superscript at Tm
    y=704 renders at y=708 -> top = 792-708-16 = 68 (vs 72 unrisen);
    the x advance is untouched."""
    content = (b"BT /F1 12 Tf 1 0 0 1 100 704 Tm (base) Tj "
               b"4 Ts (sup) Tj 0 Ts (tail) Tj ET")
    rows = _text_attrs(pdf_to_page_xml(_pdf_with_content(content))[0])
    by_text = {t["text"]: t for t in rows}
    assert by_text["base"]["top"] == "72"
    assert by_text["sup"]["top"] == "68"
    assert by_text["tail"]["top"] == "72"
    # advance unaffected by rise: base(4 codes)=28.8 -> x 128.8,
    # sup(3)=21.6 -> tail at 100+28.8+21.6=150.4 -> left 150
    assert by_text["tail"]["left"] == "150"


def test_q_restore_resets_spacing():
    """Tc set inside q..Q must not leak: after Q the advance reverts
    to plain Courier metrics."""
    content = (b"BT /F1 12 Tf q 3 Tc 1 0 0 1 100 704 Tm (Hi) Tj Q "
               b"1 0 0 1 100 680 Tm (Hi) Tj ET")
    rows = _text_attrs(pdf_to_page_xml(_pdf_with_content(content))[0])
    widths = {t["text"]: t["width"] for t in rows}
    # inside q: 2*7.2 + 2*3 = 20.4 -> 20; after Q: 14.4 -> 14
    assert len(rows) == 2
    tops = sorted((t["top"], t["width"]) for t in rows)
    assert tops == [("72", "20"), ("96", "14")]
