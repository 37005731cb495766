"""Standard-14 proportional font metrics (VERDICT r4 #1 / SURVEY §7
step 6): a PDF set in Helvetica/Times WITHOUT an embedded /Widths
array must get the Adobe Core-14 AFM advances — not the Courier 600
guess — so the reference's gap arithmetic (÷7 spaces,
ParseText.php:515-524) and ±4 px line bucketing (:286-311) fire the
way they would on poppler's pdftohtml output.

Every expected coordinate below is HAND-COMPUTED from the public AFM
numbers (shown inline), never read back from the engine.
"""

from __future__ import annotations

import re

from ray_script_extract.engine.pagexml import DocState, process_page_xml
from ray_script_extract.engine.parse_text import parse_pages_xml
from ray_script_extract.sources.pdf_fixtures import build_pdf
from ray_script_extract.sources.pdfnative import (_std14_widths,
                                                  pdf_to_page_xml)
from tests.helpers import helvetica_font_obj

HELV = {"F4": helvetica_font_obj(embed_widths=False)}


def _text_attrs(xml: str):
    return [dict(re.findall(r'(\w+)="([^"]*)"', m)) |
            {"text": re.sub(r"<[^>]+>", "", m2)}
            for m, m2 in re.findall(r"<text ([^>]*)>(.*?)</text>", xml)]


def test_helvetica_width_hand_computed():
    # "Hello" in Helvetica-12: H 722 + e 556 + l 222 + l 222 + o 556
    # = 2278 units → 2278/1000·12 pt = 27.336 → round → 27.
    # Courier-600 would have said 5·600/1000·12 = 36.
    pdf = build_pdf([[(72, 108, "Hello", {"font": "F4"})]],
                    extra_fonts=HELV)
    (page,) = pdf_to_page_xml(pdf)
    (t,) = _text_attrs(page)
    assert (t["top"], t["left"], t["width"]) == ("72", "108", "27")
    assert t["text"] == "Hello"


def test_times_and_bold_faces_hand_computed():
    # "Hi" Times-Roman-12: H 722 + i 278 = 1000 → 12.0 → 12
    # "Hi" Times-Bold-12:  H 778 + i 278 = 1056 → 12.672 → 13
    # "Hi" Helvetica-Bold-12: H 722 + i 278 = 1000 → 12
    fonts = {
        "F4": b"<< /Type /Font /Subtype /Type1 /BaseFont /Times-Roman >>",
        "F5": b"<< /Type /Font /Subtype /Type1 /BaseFont /Times-Bold >>",
        "F6": b"<< /Type /Font /Subtype /Type1 "
              b"/BaseFont /Helvetica-Bold >>",
    }
    pdf = build_pdf([[(72, 100, "Hi", {"font": "F4"}),
                      (84, 100, "Hi", {"font": "F5"}),
                      (96, 100, "Hi", {"font": "F6"})]],
                    extra_fonts=fonts)
    (page,) = pdf_to_page_xml(pdf)
    widths = [t["width"] for t in _text_attrs(page)]
    assert widths == ["12", "13", "12"]


def test_gap_spaces_fire_from_proportional_metrics():
    # Two fragments on ONE visual line: "Hello" at x=108 (right edge
    # 108 + 27.336 = 135.336) and "World" at x=150.  Gap = 14.664 →
    # floor(14.664/7) = 2 reconstruction spaces (ParseText.php:515-524
    # arithmetic).  Under the old Courier-600 guess the right edge
    # would be 144 → gap 6 → floor(6/7) = 0 spaces — a joined word.
    pdf = build_pdf([[(72, 108, "Hello", {"font": "F4"}),
                      (72, 150, "World", {"font": "F4"})]],
                    extra_fonts=HELV)
    state = DocState()
    process_page_xml(pdf_to_page_xml(pdf)[0], state)
    texts = [lo.text for lo in state.line_objects
             if lo.text not in ("", "\f")]
    assert texts == ["Hello  World"]


def test_no_widths_equals_embedded_widths_twin():
    """A Helvetica fixture with NO /Widths and its twin carrying the
    full embedded AFM /Widths array must produce bit-identical page
    XML and identical (kind, text) spans — the cross-check pinning the
    internal standard-14 table against the /Widths code path."""
    # dense enough (>30 pieces / >300 chars) that the title-page
    # detector (ParseText.php:1112-1142) does NOT fire
    lines = [(72, 108, "INT. LOBBY - DAY", {"font": "F4"})]
    top = 96
    for k in range(10):
        lines.append((top, 108,
                      f"Filler action line {k} with plenty of words to "
                      f"exceed the fly-page caps.", {"font": "F4"}))
        top += 24
    lines += [
        (top, 280, "HERO", {"font": "F4"}),
        (top + 12, 180, "Metrics matter at every indent.",
         {"font": "F4"}),
        (top + 36, 430, "CUT TO:", {"font": "F4"}),
    ]
    # two pages: a single-page doc hits the reference's no-formfeed
    # quirk and yields [] by design (parse_text.py:670-678)
    page2 = [(72, 108, "EXT. STREET - NIGHT", {"font": "F4"}),
             (96, 108, "The twin pages close out the comparison.",
              {"font": "F4"})]
    pdf_nw = build_pdf([lines, page2], extra_fonts={
        "F4": helvetica_font_obj(embed_widths=False)})
    pdf_ew = build_pdf([lines, page2], extra_fonts={
        "F4": helvetica_font_obj(embed_widths=True)})
    xml_nw = pdf_to_page_xml(pdf_nw)
    xml_ew = pdf_to_page_xml(pdf_ew)
    assert xml_nw == xml_ew
    spans_nw = [(o.get_type_json(), o.content)
                for o in parse_pages_xml(xml_nw)]
    spans_ew = [(o.get_type_json(), o.content)
                for o in parse_pages_xml(xml_ew)]
    assert spans_nw == spans_ew
    assert len(spans_nw) > 0


def test_embedded_widths_always_win():
    """An embedded /Widths array overrides the standard-14 table even
    for a base-14 name (spec precedence): pin a fake 900-unit 'H'."""
    fonts = {"F4": (b"<< /Type /Font /Subtype /Type1 "
                    b"/BaseFont /Helvetica /FirstChar 72 "
                    b"/LastChar 72 /Widths [900] >>")}
    pdf = build_pdf([[(72, 100, "H", {"font": "F4"})]],
                    extra_fonts=fonts)
    (page,) = pdf_to_page_xml(pdf)
    (t,) = _text_attrs(page)
    assert t["width"] == "11"  # 900/1000·12 = 10.8 → 11 (AFM: 722→9)


def test_family_alias_selection():
    """Arial/TimesNewRoman (and PS-suffixed names) alias to the
    standard-14 metrics; Courier-family and unknown faces stay on the
    fixed-600 path."""
    helv = _std14_widths("Helvetica", False, False)
    assert _std14_widths("Arial", False, False) is helv
    assert _std14_widths("ArialMT", False, False) is helv
    assert _std14_widths("Arial", True, False) \
        is _std14_widths("Helvetica", True, False)
    # Helvetica-Oblique shares the regular advances (published AFMs)
    assert _std14_widths("Helvetica", False, True) is helv
    tr = _std14_widths("Times", False, False)
    assert _std14_widths("TimesNewRomanPSMT", False, False) is tr
    assert _std14_widths("Times", True, True) \
        is not _std14_widths("Times", True, False)
    assert _std14_widths("Courier", False, False) is None
    assert _std14_widths("CourierPrime", False, False) is None
    assert _std14_widths("Symbol", False, False) is None
    assert _std14_widths("ZapfDingbats", False, False) is None


def test_line_bucketing_segmentation_golden():
    """Hand-computed block segmentation for a Helvetica page: the
    12-space splitter needs gap/7 ≥ 12 → ≥ 84 px between fragments.
    Left column ends at 90 + width("Col one.")=.  C 722 o 556 l 222
    space 278 o 556 n 556 e 556 period 278 = 3724 → 44.688 px, right
    edge 134.688.  Right fragment at 330 → gap 195.312 → 27 spaces →
    splits into TWO block pieces (multi-column)."""
    pdf = build_pdf([[(72, 90, "Col one.", {"font": "F4"}),
                      (72, 330, "Col two.", {"font": "F4"})]],
                    extra_fonts=HELV)
    state = DocState()
    process_page_xml(pdf_to_page_xml(pdf)[0], state)
    texts = [lo.text for lo in state.line_objects
             if lo.text not in ("", "\f")]
    assert len(texts) == 1
    joined = texts[0]
    assert joined.startswith("Col one.")
    gap = joined[len("Col one."):len(joined) - len("Col two.")]
    assert set(gap) == {" "} and len(gap) == 27
    assert joined.endswith("Col two.")
