"""Differential: the regex tokenizer's tree (`parse_html`, the
production path) vs the html.parser-backed reference builder
(`tests.helpers.parse_html_stdlib`) must build the SAME tree — on
seeded random messy HTML and on real reference inputs.  Adjacent text
nodes are merged before comparison (the two builders chunk text
differently around entities)."""

from __future__ import annotations

import glob
import random

import pytest

from ray_script_extract.sources.htmldom import Node, parse_html
from tests.helpers import parse_html_stdlib


def _normalize(node: Node):
    out = []
    buf = []
    for c in node.children:
        if isinstance(c, str):
            buf.append(c)
        else:
            if buf:
                out.append("".join(buf))
                buf = []
            out.append((c.tag, tuple(sorted(c.attrs.items())),
                        _normalize(c)))
    if buf:
        out.append("".join(buf))
    return out


def _trees_equal(html: str) -> bool:
    return _normalize(parse_html(html)) == \
        _normalize(parse_html_stdlib(html))


_TAGS = ["p", "div", "b", "i", "a", "td", "tr", "table", "li", "ul",
         "h1", "blockquote", "span"]
_VOID = ["br", "hr", "img"]
_WORDS = ["alpha", "beta", "amp&amp;ersand", "q&quot;uote", "x", "ys"]


def _random_html(seed: int) -> str:
    r = random.Random(seed)
    parts = ["<html><body>"]
    depth = 0
    open_tags = []
    for _ in range(r.randint(20, 60)):
        roll = r.random()
        if roll < 0.35 and depth < 6:
            t = r.choice(_TAGS)
            attrs = ""
            if r.random() < 0.4:
                attrs = f' class="{r.choice(_WORDS[:2])}"'
            if r.random() < 0.2:
                attrs += f" id={r.randint(0, 99)}"  # unquoted value
            parts.append(f"<{t}{attrs}>")
            open_tags.append(t)
            depth += 1
        elif roll < 0.5 and open_tags:
            t = open_tags.pop()
            parts.append(f"</{t}>")
            depth -= 1
        elif roll < 0.6:
            parts.append(f"<{r.choice(_VOID)}>")
        else:
            parts.append(" ".join(r.choice(_WORDS)
                                  for _ in range(r.randint(1, 5))))
    # leave any remaining tags unclosed on purpose — lenient parsing
    parts.append("</body></html>")
    return "".join(parts)


@pytest.mark.parametrize("seed", range(30))
def test_random_messy_html_parses_identically(seed):
    html = _random_html(seed)
    assert _trees_equal(html), html


def test_auto_close_constructs_parse_identically():
    for html in [
        "<body><p>one<p>two<p>three</body>",
        "<table><tr><td>a<td>b<tr><td>c</table>",
        "<ul><li>x<li>y</ul>",
        "<body><b>bold <i>both</b> ital?</body>",
        "<p>entity &lt;soup&gt; &amp; more&nbsp;here</p>",
        "<div><br><hr><img src=x></div>",
    ]:
        assert _trees_equal(html), html


def test_real_reference_inputs_parse_identically():
    paths = sorted(glob.glob(
        "/root/reference/shakespeare/*/*.shakespeare"))[:3]
    assert paths, "reference corpus missing"
    for p in paths:
        html = open(p, "rb").read().decode("iso-8859-1")
        assert _trees_equal(html), p
