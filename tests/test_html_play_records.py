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
    assert [(s["kind"], s["text"]) for s in out] == _reference(html)
    assert [s["offset"] for s in out] == list(range(len(out)))


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
