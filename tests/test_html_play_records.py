"""Differential: the one-pass play reader (`parse_shakespeare_text`, the
production path) vs the DOM-walk reference (`parse_shakespeare_dom`,
the walk over the full `parse_html` tree) must give the same ordered
``(JSON kind, text)`` records — on generated plays from one act to the
60-act outlier, on random tag soup with and without walker-shaped
content, and on a hypothesis tag-soup property.  The reference's quirks
are pinned on both readers, and `cli convert` of a `.shakespeare` file
must write what the writers make of the reference's objects.

Pure Python, no Ray session: the whole file runs in seconds.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ray_script_extract import cli
from ray_script_extract.corpus import make_play_html
from ray_script_extract.engine.objects import ScriptObject
from ray_script_extract.functions.textutil import (
    _BLANK_NL_RUN,
    collapse_blanks_and_newlines,
)
from ray_script_extract.sources.shakespeare import (
    TITLE_PAGE_LINES,
    parse_shakespeare_dom,
    parse_shakespeare_text,
)
from ray_script_extract.sources.writers import (
    dumps_wd_json,
    write_fountain,
    write_wd_json,
)
from ray_script_extract.stages.extract import ExtractorActor
from tests.test_htmldom_differential import _random_html


def _reference(html: str):
    return [(o.get_type_json(), o.content) for o in parse_shakespeare_dom(html)]


def _assert_same(html: str):
    got = parse_shakespeare_text(html)
    assert got == _reference(html), html
    return got


# -- generated plays ----------------------------------------------------

@pytest.mark.parametrize("n_acts", [1, 2, 3, 5, 60])
def test_generated_plays_match_reference(n_acts):
    for seed in range(3):
        for index in range(4 if n_acts < 60 else 1):
            _assert_same(make_play_html(seed, index, n_acts=n_acts))


# -- tag soup -----------------------------------------------------------

_HEADED = "<html><head><title>Soup Play: Entire Play</title></head><body>"

# walker-shaped pieces: what the reader keeps, half-closed, nested,
# self-closed, entity-laden and colour-marked
_PLAY_BITS = [
    "<a name=speech1>", "<A NAME=speech2><b>KING</b></a>",
    "<a name=speech3>LEAR &amp; FOOL</a>", "<a name=speech4/>",
    "<a name=other>x</a>", "<a>", "</a>",
    "<blockquote>", "</blockquote>", "<BLOCKQUOTE>",
    "<a name=1.1.1>[Aside] softly</a>", "<a name=1.1.2>[Aside</a>",
    "<a name=1.1.3>EPILOGUE</a>", "<a name=1.1.4>plain \x10line</a><br>",
    "<p>To the king</p>", "<p>Aside", "<p>Exit \x11all", "</p>",
    "<h3>ACT II</h3>", "<h3>SCENE I. A heath", "</h3>",
    "<i>Enter</i>", "<title>inner</title>", "<head>", "<body>",
    "&#49;", " \n\t", "\x1c",
]


def _play_soup(seed: int, headed: bool) -> str:
    """`_random_html` with walker-shaped pieces spliced in after random
    tag ends, and optionally a real ``<head><title>``."""
    r = random.Random(seed)
    html = _random_html(seed)
    if headed:
        html = _HEADED + html[len("<html><body>"):]
    cuts = sorted(r.sample(
        [i + 1 for i, c in enumerate(html) if c == ">"],
        k=min(8, html.count(">"))))
    pieces, prev = [], 0
    for cut in cuts:
        pieces.append(html[prev:cut])
        pieces.append("".join(r.choice(_PLAY_BITS)
                              for _ in range(r.randint(1, 4))))
        prev = cut
    pieces.append(html[prev:])
    return "".join(pieces)


@pytest.mark.parametrize("seed", range(0, 300, 30))
def test_random_soup_matches_reference(seed):
    for s in range(seed, seed + 30):
        _assert_same(_random_html(s))
        _assert_same(_play_soup(s, headed=False))
        _assert_same(_play_soup(s, headed=True))


_SOUP_TAGS = ["a", "p", "b", "i", "td", "tr", "li", "h3", "head", "body",
              "title", "blockquote", "table", "div"]
_SOUP_PIECES = st.one_of(
    st.sampled_from(_SOUP_TAGS).map(lambda t: f"<{t}>"),
    st.sampled_from(_SOUP_TAGS).map(lambda t: f"</{t}>"),
    st.sampled_from(_SOUP_TAGS).map(lambda t: f"<{t}/>"),
    st.sampled_from(["<br>", "<hr/>", "</br>", "<!-- c -->", "<!DOCTYPE x>",
                     "<a name=speech9>", "<A Name='speech'>",
                     "<a name=1.2>", "<a href=x>", "<p class=x>"]),
    st.sampled_from(["ACT I", "To ", "Aside", "EPILOGUE", "[", "]", "&amp;",
                     "&#49;", "&", "<", " ", "\n", "\x10", "\x1c", "x"]),
    st.text(alphabet="ab []&;<>/\n", max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SOUP_PIECES, max_size=40))
def test_tag_soup_property(pieces):
    _assert_same("".join(pieces))


# -- quirk pins, each on both readers ------------------------------------

def _both(html: str):
    got = _assert_same(html)
    return got[TITLE_PAGE_LINES:]


def _title(html: str) -> str:
    return _assert_same(html)[17]


def test_merged_speaker_keeps_colour_marker():
    body = _both("<body><a name=speech1>A\x10Z</a>"
                 "<a name=speech2>B\x10C</a></body>")
    assert body == [("Character", "AZ & B\x10C")]


def test_short_titles_keep_negative_slice():
    assert _title("<head><title>Abcdef</title></head>") == ("Title", "")
    assert _title("<head><title>Abcdefghij</title></head>") == \
        ("Title", "Abcdefg")
    assert _title("<head><title>Hamlet: Entire Play</title></head>") == \
        ("Title", "Hamlet")


def test_bracket_split_keeps_leading_space():
    body = _both("<body><blockquote><a name=1>[Aside] text</a>"
                 "<a name=2>[Aside text</a></blockquote></body>")
    assert body == [("Parens", "(Aside)"), ("Dialogue", " text"),
                    ("Dialogue", "[Aside text")]


def test_entities_unescaped_in_text_and_name():
    body = _both("<body><a name=&#115;peech1>X &amp; Y&#49;</a></body>")
    assert body == [("Character", "X & Y1")]


def test_self_closed_speech_is_empty_character():
    assert _both("<body><a name=speech1/></body>") == [("Character", "")]


def test_epilogue_and_asides():
    body = _both("<body><blockquote><a name=1>EPILOGUE</a><p>To him</p>"
                 "<p>Aside</p><p>Exit</p></blockquote><h3>ACT V</h3>"
                 "<h3>SCENE\x10 I</h3></body>")
    assert body == [("Scene", "EPILOGUE"), ("Parens", "(To him)"),
                    ("Parens", "(Aside)"), ("Action", "Exit"),
                    ("New Act", "ACT V"), ("Scene", "SCENE I")]


# -- the one pass's shortcuts: void and self-closed tags, stray ends -----

_HEAD_TITLE = "<head><title>Abc: Entire Play</title></head>"
_EDGE_CASES = {
    # a self-closed first head/body is still the one the walk reads
    "self-closed head": "<head/>" + _HEAD_TITLE,
    "self-closed body": "<body/><body><a name=speech1>X</a></body>",
    "self-closed title":
        "<head><title>Abc: Entire Play</title><title/></head>",
    "self-closed h3": "<body><h3/><h3>ACT I</h3></body>",
    "self-closed blockquote": "<body><blockquote/><a name=1>line</a></body>",
    "self-closed speech":
        "<body><a name=speech1/><a name=speech2>B</a></body>",
    "self-closed p in blockquote":
        "<body><blockquote><p/><p>To him</p></blockquote></body>",
    # a self-closed tag still closes what it implicitly closes
    "self-closed block closes p":
        "<body><blockquote><p>Exit<div/> all</p><a name=1>x<a/>y</a>"
        "</blockquote></body>",
    "br in title": "<head><title>Ab<br>c<br/>d: Entire Play</title></head>",
    "stray ends": "<body></br><a name=speech1>A</br></b>B</p></a>"
                  "</blockquote><blockquote></h3><a name=1>C</td>D</a>"
                  "</blockquote></i></body>",
    "mixed case": "<HTML><HEAD><Title>Abc: Entire Play</TITLE></Head>"
                  "<Body><A Name=speech1><B>KING</b></a><BlockQuote>"
                  "<a NAME=1>[Aside] Hm</A><P>Exit</p></BLOCKQUOTE>"
                  "<H3>ACT II</h3></BODY>",
    "entities split by tags": "<head><title>A&am<b>p;B: Entire Play</title>"
                              "</head><body><a name=speech1>&#4<i>9;</i>"
                              "&lt;</a></body>",
}


@pytest.mark.parametrize("html", _EDGE_CASES.values(), ids=_EDGE_CASES)
def test_reader_shortcuts_match_reference(html):
    _assert_same(html)


# -- the walk's tables: the speech name, the first head/body, closes -----

_WALK_CASES = {
    # the speech anchor's name: case, quoting, entities
    "NAME upper": "<body><a NAME=speech1>A</a></body>",
    "Name mixed": "<body><a Name=speech1>A</a><a nAmE=speech2>B</a></body>",
    "double-quoted": '<body><a name="speech1">A</a></body>',
    "single-quoted": "<body><a name='speech1'>A</a></body>",
    "blanks around =": "<body><a name = 'speech1' >A</a></body>",
    "entity in name": "<body><a name=&#115;peech1>A</a>"
                      '<a name="sp&#101;ech2">B</a></body>',
    "entity in quoted name": "<body><a href=x name='&#115;peech1'>A</a>"
                             "</body>",
    # name=speech… that is not the name attribute does not count
    "inside another value": '<body><a title="name=speech1">A</a>'
                            "<a title='x name=speech2'>B</a></body>",
    "prefix of another name": "<body><a myname=speech1>A</a>"
                              "<a name_=speech2>B</a></body>",
    # the first name attribute wins, with or without a value
    "duplicate, other first": "<body><a name=other name=speech1>A</a>"
                              "</body>",
    "duplicate, speech first": "<body><a name=speech1 NAME=other>A</a>"
                               "</body>",
    "name without value": "<body><a name>A</a><a name name=speech1>B</a>"
                          "</body>",
    "empty name": '<body><a name="">A</a><a name=>B</a></body>',
    # only the first head and the first body are read
    "second head": "<head><title>A: Entire Play</title></head>"
                   "<head><title>B: Entire Play</title></head>",
    "second body": "<body><a name=speech1>A</a></body>"
                   "<body><a name=speech2>B</a></body>",
    "body inside head": "<head><body><a name=speech1>A</a></body>"
                        "<title>T: Entire Play</title></head>",
    # self-closed speech and scene heading
    "self-closed speech": "<body><A NAME=speech1 /><a name=speech2/>"
                          "<a name=speech3>C</a></body>",
    "self-closed h3": "<body><H3/><h3 />ACT I<h3>ACT II</h3></body>",
    # a blockquote closes an open <p> implicitly
    "p closed by blockquote at body level":
        "<body><p>stray<blockquote><a name=1>line</a></blockquote></body>",
    "p closed by blockquote in blockquote":
        "<body><blockquote><p>Exit all<blockquote><a name=1>x</a>"
        "</blockquote><p>To him</blockquote></body>",
}


@pytest.mark.parametrize("html", _WALK_CASES.values(), ids=_WALK_CASES)
def test_walk_cases_match_reference(html):
    _assert_same(html)


def test_speech_name_reads_only_the_first_name_attribute():
    assert _both(_WALK_CASES["inside another value"]) == []
    assert _both(_WALK_CASES["duplicate, other first"]) == []
    assert _both(_WALK_CASES["duplicate, speech first"]) == [
        ("Character", "A")]
    assert _both(_WALK_CASES["name without value"]) == []
    assert _both(_WALK_CASES["entity in name"]) == [("Character", "A & B")]
    assert _title(_WALK_CASES["second head"]) == ("Title", "A")
    assert _both(_WALK_CASES["second body"]) == [("Character", "A")]


def test_self_closed_first_head_and_body_hide_later_ones():
    assert _title("<head/>" + _HEAD_TITLE) == ("Title", "")
    assert _both("<body/><body><a name=speech1>X</a></body>") == []
    assert _both(_HEAD_TITLE + "<body><h3/><blockquote><p/></blockquote>"
                 "</body>") == [("Scene", ""), ("Action", "")]


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=" \t\r\n\x0b\x0c\x85\xa0\u2028\u3000ab\x10"))
def test_collapse_shortcut_equals_the_regex_definition(s):
    assert collapse_blanks_and_newlines(s) == _BLANK_NL_RUN.sub(" ", s.strip())


# -- the extract stage and cli convert ----------------------------------

def test_extract_doc_builds_no_script_objects(monkeypatch):
    html = make_play_html(1, 2, n_acts=2)
    extractor = ExtractorActor()

    def refuse(*args, **kwargs):
        raise AssertionError("ScriptObject built on the HTML extract path")

    monkeypatch.setattr(ScriptObject, "__init__", refuse)
    out = extractor.extract_doc(
        "d", [{"kind": "html", "text": html, "media_ref": ""}])
    monkeypatch.undo()
    assert [(kind, text) for kind, text, _ in out] == _reference(html)
    assert {ref for _, _, ref in out} == {""}


@pytest.mark.parametrize("fmt", ["fountain", "json"])
def test_cli_convert_shakespeare_matches_reference_objects(
        fmt, tmp_path, capsys):
    html = make_play_html(3, 1, n_acts=2) + "<!-- \xe9 -->"
    path = tmp_path / "play.shakespeare"
    path.write_bytes(html.encode("iso-8859-1"))
    assert cli.main(["convert", str(path), "--format", fmt]) == 0
    got = capsys.readouterr().out
    objects = parse_shakespeare_dom(html)
    if fmt == "fountain":
        assert got == write_fountain(objects) + "\n"
    else:
        assert got == dumps_wd_json(write_wd_json(objects)) + "\n"
        doc = json.loads(got)
        assert len(doc["titlePage"]["lines"]) == TITLE_PAGE_LINES
        assert doc["titlePage"]["lines"][21] == {
            "type": "Text", "text": "By", "attributes": {"alignment": "center"}}
