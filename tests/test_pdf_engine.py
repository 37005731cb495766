"""PDF-XML block-engine tests: classification fixtures per
SURVEY.md §2.3-2.4 / FIXTURES.md §3 coordinate conventions."""

from __future__ import annotations

from ray_script_extract.engine.parse_text import parse_pages_xml
from ray_script_extract.sources.pagexml_fixtures import PageBuilder, screenplay_page


def _kinds_texts(objs):
    return [(o.get_type_json(), o.content) for o in objs]


def _dense(pb: PageBuilder, n: int = 10) -> None:
    pb.line(108, "INT. HALL - DAY")
    for k in range(n):
        pb.line(108, f"Filler action line {k} with plenty of words to exceed caps.",
                blank_before=1)


def test_core_screenplay_classification():
    scenes1 = [{
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
        "action": ["Mark walks outside. He looks at the stars."],
        "speeches": [("MARK", None, ["I wonder what she made."])],
    }]
    scenes2 = [{
        "slug": "INT. DINING ROOM - LATER",
        "action": ["The cake sits on the table."],
        "speeches": [("JANE", "(beaming)", ["Surprise!"])],
    }]
    objs = parse_pages_xml([screenplay_page(1, scenes1),
                            screenplay_page(2, scenes2)])
    assert _kinds_texts(objs) == [
        ("Scene", "INT. KITCHEN - DAY"),
        ("Action", "Jane enters. We see her smile."),
        ("Action", "She opens the oven and pulls out a cake."),
        ("Character", "JANE"),
        ("Parens", "(hopeful)"),
        ("Dialogue", "I made you something. It took me all day."),
        ("Character", "MARK (V.O.)"),
        ("Dialogue", "What is it? Tell me now."),
        ("Character", "JANE"),
        ("Dialogue", "You will have to wait and see. I promise it is worth the wait."),
        ("Transition", "CUT TO:"),
        ("Scene", "EXT. GARDEN - NIGHT"),
        ("Action", "Mark walks outside. He looks at the stars."),
        ("Character", "MARK"),
        ("Dialogue", "I wonder what she made."),
        ("Scene", "INT. DINING ROOM - LATER"),
        ("Action", "The cake sits on the table."),
        ("Character", "JANE"),
        ("Parens", "(beaming)"),
        ("Dialogue", "Surprise!"),
    ]


def test_title_page_variant_a():
    """Variant A: title then bare author line."""
    p1 = PageBuilder(number=1)
    p1.line(250, "Fight Club", blank_before=5)
    p1.line(240, "Chuck Palahniuk", blank_before=2)
    p2 = PageBuilder(number=2)
    _dense(p2)
    objs = parse_pages_xml([p1.xml(), p2.xml()])
    title_objs = [(o.get_type_json(), o.content) for o in objs
                  if o.page_num == 1 and o.content]
    assert title_objs == [("Title", "Fight Club"), ("Author", "Chuck Palahniuk")]


def test_title_page_variant_b_inline_by():
    """Variant B: 'by Chuck Palahniuk' inline splits into two objects."""
    p1 = PageBuilder(number=1)
    p1.line(250, "Fight Club", blank_before=5)
    p1.line(230, "by Chuck Palahniuk", blank_before=2)
    p2 = PageBuilder(number=2)
    _dense(p2)
    objs = parse_pages_xml([p1.xml(), p2.xml()])
    title_objs = [(o.get_type_json(), o.content) for o in objs
                  if o.page_num == 1 and o.content]
    assert title_objs == [("Title", "Fight Club"), ("Text", "by"),
                          ("Author", "Chuck Palahniuk")]


def test_title_page_variant_c_by_alone():
    """Variant C: 'written by' on its own line → next line is Author."""
    p1 = PageBuilder(number=1)
    p1.line(250, "Fight Club", blank_before=5)
    p1.line(260, "written by", blank_before=2)
    p1.line(240, "Chuck Palahniuk", blank_before=1)
    p2 = PageBuilder(number=2)
    _dense(p2)
    objs = parse_pages_xml([p1.xml(), p2.xml()])
    title_objs = [(o.get_type_json(), o.content) for o in objs
                  if o.page_num == 1 and o.content]
    assert title_objs == [("Title", "Fight Club"), ("Text", "written by"),
                          ("Author", "Chuck Palahniuk")]


def test_dual_dialog_reconstruction():
    pb = PageBuilder(number=1)
    _dense(pb, 12)
    pb.line(280, "JANE" + " " * 20 + "MARK", blank_before=1)
    pb.raw_text(pb.top, 180, "I say left things.")
    pb.raw_text(pb.top, 380, "I say right things.")
    pb.top += 12
    pb.line(108, "They stop talking.", blank_before=1)
    objs = parse_pages_xml([pb.xml(), PageBuilder(number=2).xml()])
    tail = [(o.get_type_json(), o.content, o.has_dual_line, o.is_dual_line)
            for o in objs[-5:]]
    assert tail == [
        ("Character", "JANE", True, False),
        ("Dialogue", "I say left things.", False, False),
        ("Character", "MARK", False, True),
        ("Dialogue", "I say right things.", False, False),
        ("Action", "They stop talking.", False, False),
    ]


def test_cross_page_dialog_merge():
    p1 = PageBuilder(number=1)
    _dense(p1)
    p1.line(280, "JANE", blank_before=1)
    p1.line(180, "I kept this speech going so")
    p2 = PageBuilder(number=2)
    p2.line(180, "then I finished it on page two.")
    p2.line(108, "She smiles at Mark warmly.", blank_before=1)
    objs = parse_pages_xml([p1.xml(), p2.xml()])
    assert _kinds_texts(objs)[-2:] == [
        ("Dialogue", "I kept this speech going so then I finished it on page two."),
        ("Action", "She smiles at Mark warmly."),
    ]


def test_contd_whiteout_and_page_number_header():
    p1 = PageBuilder(number=1)
    _dense(p1)
    p1.line(280, "JANE (CONT'D)", blank_before=1)
    p1.line(180, "I never stopped talking.")
    p2 = PageBuilder(number=2)
    p2.raw_text(30, 540, "2.")
    p2.line(108, "She pauses for effect now.")
    objs = parse_pages_xml([p1.xml(), p2.xml()])
    kt = _kinds_texts(objs)
    # (CONT'D) is whited out, leaving just the name
    assert ("Character", "JANE") in kt
    assert all("CONT" not in t for _, t in kt)
    # the header page number never becomes content
    assert all(t != "2." for _, t in kt)
    assert objs[0].given_page_num == ""


def test_scene_numbers_stripped():
    pb = PageBuilder(number=1)
    _dense(pb)
    pb.top += 12
    top = pb.top
    pb.raw_text(top, 40, "12A")
    pb.raw_text(top, 108, "EXT. BARN - NIGHT")
    pb.raw_text(top, 545, "12A")
    pb.top += 12
    pb.line(108, "An owl hoots.", blank_before=1)
    objs = parse_pages_xml([pb.xml(), PageBuilder(number=2).xml()])
    kt = _kinds_texts(objs)
    assert ("Scene", "EXT. BARN - NIGHT") in kt
    assert all("12A" not in t for _, t in kt)


def test_the_end_and_shot():
    pb = PageBuilder(number=1)
    _dense(pb)
    pb.line(108, "ANGLE ON THE DOOR", blank_before=2)  # Shot: 2 blanks + caps
    pb.line(108, "It creaks open slowly.", blank_before=1)
    pb.line(108, "THE END", blank_before=1)
    objs = parse_pages_xml([pb.xml(), PageBuilder(number=2).xml()])
    kt = _kinds_texts(objs)
    assert ("Shot", "ANGLE ON THE DOOR") in kt
    assert ("Action", "THE END") in kt


def test_changebar_asterisks_filtered():
    pb = PageBuilder(number=1)
    _dense(pb)
    pb.raw_text(pb.top, 580, "*")
    pb.line(108, "A changed line of action here.", blank_before=1)
    objs = parse_pages_xml([pb.xml(), PageBuilder(number=2).xml()])
    assert all(o.content != "*" for o in objs)


def test_single_page_doc_is_empty():
    """Reference quirk: a 1-page doc's only \\f is the trailing
    sentinel → broken no-formfeed branch → no objects."""
    pb = PageBuilder(number=1)
    _dense(pb)
    assert list(parse_pages_xml([pb.xml()])) == []


def test_transition_right_aligned_uppercase():
    pb = PageBuilder(number=1)
    _dense(pb)
    pb.line(430, "SLAM CUT TO:", blank_before=1)
    pb.line(108, "INT. CAVE - NIGHT", blank_before=2)
    pb.line(108, "Darkness everywhere around us.", blank_before=1)
    objs = parse_pages_xml([pb.xml(), PageBuilder(number=2).xml()])
    assert ("Transition", "SLAM CUT TO:") in _kinds_texts(objs)


def test_series_of_shots_items_not_merged():
    """SERIES_TIMER semantics: 'A) ...' / 'B) ...' items under a
    SERIES OF SHOTS slugline must stay separate blocks
    (ParseText.php:2070-2082,1899-1920)."""
    pb = PageBuilder(number=1)
    _dense(pb)
    pb.line(108, "SERIES OF SHOTS", blank_before=2)
    pb.line(108, "A)  First shot happens here.", blank_before=1)
    pb.line(108, "B)  Second shot follows along.")
    pb.line(108, "C)  Third shot wraps it up.")
    objs = parse_pages_xml([pb.xml(), PageBuilder(number=2).xml()])
    tail = _kinds_texts(objs)[-4:]
    assert tail == [
        ("Scene", "SERIES OF SHOTS"),
        ("Action", "A) First shot happens here."),
        ("Text", "B) Second shot follows along."),
        ("Text", "C) Third shot wraps it up."),
    ]
