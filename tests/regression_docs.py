"""Deterministic PDF-engine regression scenarios.

Each scenario builds page-XML for one rule family; expected outputs
are frozen in tests/data/pdf_engine_golden.json (generated once by
``python tests/regression_docs.py``, reviewed, committed) and guarded
by test_pdf_golden_regression.py — refactor armor for the block
engine.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from ray_script_extract.sources.pagexml_fixtures import PageBuilder  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "pdf_engine_golden.json")


def _dense(pb: PageBuilder, n: int = 10, start: int = 0) -> None:
    pb.line(108, "INT. HALL - DAY")
    for k in range(start, start + n):
        pb.line(108, f"Filler action line {k} with plenty of words to exceed caps.",
                blank_before=1)


def scenario_contact_info_and_hrule() -> List[str]:
    pb = PageBuilder(number=1)
    _dense(pb)
    pb.line(108, "-----------------", blank_before=1)
    pb.line(108, "Jane Writer", blank_before=1)
    pb.line(108, "123 Elm Street")
    pb.line(108, "Springfield, IL 62704")
    pb.line(108, "Phone: 555-123-4567 today")
    return [pb.xml(), PageBuilder(number=2).xml()]


def scenario_date_page_header() -> List[str]:
    pb = PageBuilder(number=1)
    pb.line(108, "Rev. 3/14/22")
    pb.line(108, "INT. OFFICE - DAY", blank_before=1)
    for k in range(9):
        pb.line(108, f"Busy office action number {k} with words to exceed caps.",
                blank_before=1)
    return [pb.xml(), PageBuilder(number=2).xml()]


def scenario_orphan_character() -> List[str]:
    pb = PageBuilder(number=1)
    _dense(pb)
    pb.line(280, "JANE", blank_before=1)
    pb.line(280, "MARK", blank_before=1)  # orphan: no dialog between
    pb.line(180, "I am the only one who talks.")
    return [pb.xml(), PageBuilder(number=2).xml()]


def scenario_dialog_after_slug_demotion() -> List[str]:
    """'1492' scrolling-epilogue case: dialog-indented block preceded
    by a slugline (no character) demotes."""
    pb = PageBuilder(number=1)
    _dense(pb)
    pb.line(280, "JANE", blank_before=1)
    pb.line(180, "I will read you my sign now.")
    pb.line(108, "EXT. TOWN SQUARE - DAY", blank_before=2)
    pb.line(180, "Welcome, weary travelers, one and all.", blank_before=1)
    return [pb.xml(), PageBuilder(number=2).xml()]


def scenario_orphan_trailing_characters() -> List[str]:
    """Non-dialog lines that look_like_character are caught by the
    character clause, then demoted by the orphan-Character fix
    (they never reach the Unknown-at-modal-indent rule)."""
    pb = PageBuilder(number=1)
    for k in range(6):
        pb.line(280, "JANE" if k % 2 == 0 else "MARK", blank_before=1)
        pb.line(180, f"I will speak my line number {k} right here.")
    pb.line(108, "somewhere else entirely", blank_before=1)
    pb.line(108, "ANOTHER PLACE ENTIRELY", blank_before=1)
    return [pb.xml(), PageBuilder(number=2).xml()]


def scenario_tight_fragments_concatenate() -> List[str]:
    """Fragments 3px apart on one line concatenate with 0 gap spaces
    at line assembly (floor(3/7)=0) — the reference\'s
    intersentence block merge is unreachable on the XML path since
    the 12-space splitter implies >=84px inter-piece gaps."""
    pb = PageBuilder(number=1)
    _dense(pb)
    top = pb.top + 12
    pb.raw_text(top, 108, "He stops.")
    # right edge = 108 + 9*7 = 171; next at 174 (gap 3 <= 5)
    pb.raw_text(top, 174, "Then he turns around slowly.")
    pb.top = top + 12
    return [pb.xml(), PageBuilder(number=2).xml()]


def scenario_transition_backprop() -> List[str]:
    """Uppercase unsure block right before a slugline at index >20
    becomes a Transition."""
    pb = PageBuilder(number=1)
    _dense(pb, 10)
    pb.line(280, "JANE", blank_before=1)
    pb.line(180, "I anchor the character indent at 280 here.")
    pb.line(280, "MARK", blank_before=1)
    pb.line(180, "I keep that indent honest with my line.")
    # x=430 matches no indent level → classification stays unsure;
    # tight above the slugline (a blank between defeats the rule)
    pb.line(430, "RIPPLE WIPE", blank_before=1)
    pb.line(108, "INT. DREAMSCAPE - NIGHT")
    pb.line(108, "Everything shimmers and melts away.", blank_before=1)
    return [pb.xml(), PageBuilder(number=2).xml()]


def scenario_dual_multiline_columns() -> List[str]:
    pb = PageBuilder(number=1)
    _dense(pb, 12)
    pb.line(280, "JANE" + " " * 22 + "MARK", blank_before=1)
    for l, r in [("I speak my first left line.", "And I the first right one."),
                 ("Then my second left line.", "Then my second right one.")]:
        pb.raw_text(pb.top, 180, l)
        pb.raw_text(pb.top, 390, r)
        pb.top += 12
    pb.line(108, "They finish together.", blank_before=1)
    return [pb.xml(), PageBuilder(number=2).xml()]


def scenario_dual_paren_column() -> List[str]:
    pb = PageBuilder(number=1)
    _dense(pb, 12)
    pb.line(280, "JANE" + " " * 22 + "MARK", blank_before=1)
    pb.raw_text(pb.top, 180, "I speak plainly here.")
    pb.raw_text(pb.top, 390, "(whispering)")
    pb.top += 12
    pb.raw_text(pb.top, 390, "And I whisper my reply.")
    pb.top += 12
    pb.line(108, "Silence falls.", blank_before=1)
    return [pb.xml(), PageBuilder(number=2).xml()]


def _pdf_xml(pages, **kw) -> List[str]:
    """Real-PDF path: author bytes with the fixture builder, then run
    the native front-end — so these goldens pin build_pdf →
    pdf_to_page_xml → parse_pages_xml end-to-end (VERDICT r4 #8)."""
    from ray_script_extract.sources.pdf_fixtures import build_pdf
    from ray_script_extract.sources.pdfnative import pdf_to_page_xml

    return pdf_to_page_xml(build_pdf(pages, **kw))


def _helv_fonts() -> dict:
    from tests.helpers import helvetica_font_obj

    return {"F4": helvetica_font_obj(embed_widths=False)}


def scenario_pdf_helvetica_screenplay() -> List[str]:
    """A Helvetica screenplay with NO embedded /Widths: every x/width
    comes from the internal standard-14 AFM tables, so this golden
    pins the proportional-metrics path through the whole engine."""
    f = {"font": "F4"}
    page1 = [(72, 108, "INT. LOBBY - DAY", f)]
    top = 96
    for k in range(10):
        page1.append((top, 108,
                      f"Filler action line {k} with plenty of words to "
                      f"exceed the fly-page caps.", f))
        top += 24
    page1 += [
        (top, 280, "HERO", f),
        (top + 12, 230, "(smiling)", f),
        (top + 24, 180, "Proportional metrics shape every indent.", f),
        (top + 48, 430, "CUT TO:", f),
    ]
    page2 = [(72, 108, "EXT. STREET - NIGHT", f),
             (96, 108, "The hero walks into proportional rain.", f)]
    return _pdf_xml([page1, page2], extra_fonts=_helv_fonts())


def scenario_pdf_multicolumn_dual() -> List[str]:
    """Dual-dialog two-column PDF in Helvetica: the character line
    must SPLIT on the 12-space rule (JANE right edge 280+30.672 →
    gap to MARK at 440 = 18 spaces) while the dialogue rows stay ONE
    block (gaps 6 and 3 spaces from the proportional right edges
    343.404/367.428 to the 390 column) so the dual-dialog
    reconstruction's 3..9-space column search does the splitting —
    the same regime real dual-dialog PDFs produce."""
    f = {"font": "F4"}
    page1 = [(72, 108, "INT. HALL - DAY", f)]
    top = 96
    for k in range(11):
        page1.append((top, 108,
                      f"Filler action line {k} with plenty of words to "
                      f"exceed the fly-page caps.", f))
        top += 24
    page1 += [(top, 280, "JANE", f), (top, 440, "MARK", f)]
    top += 12
    for left_txt, right_txt in [
            ("I hold the left side with my line.",
             "And my words answer from the right."),
            ("My second left line keeps going on.",
             "My second right line keeps pace too.")]:
        page1 += [(top, 180, left_txt, f), (top, 390, right_txt, f)]
        top += 12
    top += 12
    page1.append((top, 108, "They finish speaking together.", f))
    page2 = [(72, 108, "EXT. GARDEN - DAY", f),
             (96, 108, "Columns collapse back into one stream.", f)]
    return _pdf_xml([page1, page2], extra_fonts=_helv_fonts())


def scenario_pdf_revision_colored() -> List[str]:
    """Revisions-colored PDF: two key pages (header name + one known
    revision color each), the second page re-using the first page's
    color so the weight-list insert-before reordering fires
    (Parser.php:239-486 semantics via engine/postpass.py)."""
    blue, pink = {"color": (0, 0, 1)}, {"color": (1, 0, 1)}
    page1 = [(30, 108, "Blue Revision Draft"),
             (72, 108, "INT. ARCHIVE - DAY")]
    top = 96
    for k in range(10):
        page1.append((top, 108,
                      f"Archive filler action line {k} with words to "
                      f"defeat the title page."))
        top += 24
    page1.append((top, 108, "A changed line in the blue pass.", blue))
    page2 = [(30, 108, "Pink Revision Draft"),
             (72, 108, "EXT. COURTYARD - DAY"),
             (96, 108, "Plain action between the colored passes."),
             (120, 108, "A newer change in the pink pass.", pink),
             (144, 108, "An older blue change surviving here.", blue)]
    return _pdf_xml([page1, page2])


SCENARIOS: Dict[str, List[str]] = {
    "dual_multiline_columns": scenario_dual_multiline_columns(),
    "dual_paren_column": scenario_dual_paren_column(),
    "contact_info_and_hrule": scenario_contact_info_and_hrule(),
    "date_page_header": scenario_date_page_header(),
    "orphan_character": scenario_orphan_character(),
    "dialog_after_slug_demotion": scenario_dialog_after_slug_demotion(),
    "orphan_trailing_characters": scenario_orphan_trailing_characters(),
    "tight_fragments_concatenate": scenario_tight_fragments_concatenate(),
    "transition_backprop": scenario_transition_backprop(),
    "pdf_helvetica_screenplay": scenario_pdf_helvetica_screenplay(),
    "pdf_multicolumn_dual": scenario_pdf_multicolumn_dual(),
    "pdf_revision_colored": scenario_pdf_revision_colored(),
}


def compute_outputs() -> Dict[str, List]:
    from ray_script_extract.engine.parse_text import parse_pages_xml

    return {name: [[o.get_type_json(), o.content]
                   for o in parse_pages_xml(pages)]
            for name, pages in SCENARIOS.items()}


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    outputs = compute_outputs()
    with open(GOLDEN_PATH, "w") as f:
        json.dump(outputs, f, indent=1)
    for name, spans in outputs.items():
        print(f"== {name}")
        for kind, text in spans:
            print(f"  {kind:12s} {text[:60]!r}")
