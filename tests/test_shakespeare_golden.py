"""Golden-corpus conformance: all 37 reference-produced Shakespeare
pairs must match on the (kind, text, order) projection.

The goldens live in `/root/reference/shakespeare/{comedies,histories,
tragedies}/` as `<Play>_ Entire Play.shakespeare` (input HTML) →
`<Play>_ Entire Play.json` (expected output, older-writer schema with
titlePage + lines).  Equality is defined on the ordered (type, text)
projection of titlePage.lines ++ lines, which is stable across writer
versions (SURVEY.md §5).
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from ray_script_extract.sources.shakespeare import parse_shakespeare_text
from ray_script_extract.stages.extract import ExtractorActor

GOLDEN_DIR = "/root/reference/shakespeare"

PAIRS = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*", "*.shakespeare")))


def _load_pair(path):
    golden_path = path[: -len(".shakespeare")] + ".json"
    html = open(path, "rb").read().decode("iso-8859-1")
    golden = json.load(open(golden_path))
    expected = (
        [(l["type"], l["text"]) for l in golden["titlePage"]["lines"]]
        + [(l["type"], l["text"]) for l in golden["lines"]]
    )
    return html, expected


@pytest.mark.skipif(not PAIRS, reason="golden corpus unavailable")
@pytest.mark.parametrize("path", PAIRS, ids=[os.path.basename(p) for p in PAIRS])
def test_golden_pair(path):
    html, expected = _load_pair(path)
    got = parse_shakespeare_text(html)
    assert got == expected


@pytest.mark.skipif(not PAIRS, reason="golden corpus unavailable")
def test_hamlet_span_projection():
    """Spot-check the span tuple projection and known Hamlet totals."""
    path = os.path.join(GOLDEN_DIR, "tragedies", "Hamlet_ Entire Play.shakespeare")
    html, _ = _load_pair(path)
    spans = ExtractorActor().extract_doc(
        "hamlet", [{"kind": "html", "text": html, "media_ref": ""}])
    body = spans[49:]  # 49-line synthesized title page
    assert len(body) == 5389
    from collections import Counter

    counts = Counter(kind for kind, _, _ in body)
    assert counts["Dialogue"] == 4003
    assert counts["Character"] == 1138
    assert counts["Action"] == 181
    assert counts["Parens"] == 42
    assert counts["Scene"] == 20
    assert counts["New Act"] == 5
