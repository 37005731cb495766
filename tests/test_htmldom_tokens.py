"""The tokenizer's split (`htmldom._TOKEN`) against the pattern it
replaced, kept here verbatim: a start tag's attributes read by a lazy
loop that tries ``/?>`` before each character.  The possessive loop
must cut every input at the same places with the same groups, on
hypothesis tag soup and on fixed cases (self-closing marks, ``>`` in
quotes, an unclosed quote, upper-case names)."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ray_script_extract.corpus import make_play_html
from ray_script_extract.sources.htmldom import _TOKEN

LAZY_TOKEN = re.compile(
    r"<!--.*?-->"                      # comments
    r"|<!\[CDATA\[.*?\]\]>"            # CDATA
    r"|<![^>]*>"                       # doctype / other declarations
    r"|<\?[^>]*>"                      # processing instructions
    r"|</\s*([A-Za-z][-A-Za-z0-9:_.]*)\s*>"          # end tag
    r"|<([A-Za-z][-A-Za-z0-9:_.]*)"                  # start tag name
    r"((?:[^>\"']|\"[^\"]*\"|'[^']*')*?)(/?)>",      # attrs, self-close
    re.S)


def _same_split(text: str) -> None:
    assert _TOKEN.split(text) == LAZY_TOKEN.split(text), text


_PIECES = st.one_of(
    st.sampled_from(["<", ">", "/", '"', "'", "=", "!--", "-->",
                     "<![CDATA[", "]]>", "?", "&amp;", "&#49;", "&",
                     "<a", "<A", "</", "/>", "<br", "<!", "<?"]),
    st.sampled_from(["a", "A", "br", "BR", "p", "h3", "name", "NAME",
                     "speech1", "x-y", "a:b", "_", "9"]),
    st.sampled_from([" ", "\n", "\t", "\r"]),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_PIECES, max_size=40))
def test_split_equals_the_lazy_pattern_on_tag_soup(pieces):
    _same_split("".join(pieces))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="<>/\"'=!-?[]CDAT aB\n&;", max_size=60))
def test_split_equals_the_lazy_pattern_on_random_text(text):
    _same_split(text)


_FIXED = {
    "self-closed": "<a/>",
    "self-closed with blanks": "<a / >",
    "void self-closed": "x<br/>y",
    "gt in double quotes": '<a title="x>y">z</a>',
    "gt in single quotes": "<a title='x>y'>z</a>",
    "unclosed double quote": '<a title="x>y</a><b>z</b>',
    "unclosed single quote": "<a title='x>y</a><b>z</b>",
    "other quote inside": "<a b='c\"d'>e</a>",
    "slash inside value": "<a href=/x/y/>z</a>",
    "slashes before gt": "<a //>z",
    "upper case": "<A NAME=speech1><B>KING</B></A><H3>ACT I</H3>",
    "end tag blanks": "<p>x</ p ></P\n>",
    "comment and cdata": "<!-- <a> --><![CDATA[<b>]]><!DOCTYPE x><?pi?>",
    "unterminated comment": "<!-- <a>x</a>",
    "lone brackets": "a < b > c <1> <-a>",
}


@pytest.mark.parametrize("text", _FIXED.values(), ids=_FIXED)
def test_split_equals_the_lazy_pattern_on_fixed_cases(text):
    _same_split(text)


def test_self_closing_mark_and_quoted_gt_groups():
    assert _TOKEN.split("<a/>") == ["", None, "a", "", "/", ""]
    assert _TOKEN.split("<a / >") == ["", None, "a", " / ", "", ""]
    assert _TOKEN.split('<a title="x>y">') == [
        "", None, "a", ' title="x>y"', "", ""]
    # an unclosed quote leaves the tag as text
    assert _TOKEN.split('<a t="x>') == ['<a t="x>']


def test_split_equals_the_lazy_pattern_on_generated_plays():
    for seed in range(2):
        for index in range(3):
            _same_split(make_play_html(seed, index, n_acts=2))
