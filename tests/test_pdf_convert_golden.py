"""``cli convert`` of every PDF the suite builds is pinned byte for byte.

The colour and textAttribute ranges, and the revisions inferred from
them, reach only the writers: the extract path never reads them, so
they are built on demand (``ScriptObject``'s ``ranges`` thunk).  Only
``cli convert`` shows them, so its JSON and Fountain output for each
PDF of ``tests/test_pdf_raw_direct.CASES`` is held to the SHA-256 in
``tests/data/pdf_convert_golden.json``.  Those digests were taken from
the engine as it was before the ranges became lazy, when every block
still built its ranges eagerly.  Regenerate them with
``python -m tests.test_pdf_convert_golden`` only for an intended change
to the writers' output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from typing import Dict

from ray_script_extract import cli
from ray_script_extract.sources.pdf_fixtures import build_pdf
from tests.test_pdf_raw_direct import CASES as RAW_CASES

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "pdf_convert_golden.json")
FORMATS = ("json", "fountain")


def _ranges_pdf() -> bytes:
    """Every place the block engine builds or moves ranges: a "by"
    title page, revision colours and bold runs inside multi-line
    Dialog, a hyphen join, a Dialog carried across a page break, a
    Contact Info block and dual dialogue."""
    blue, pink = {"color": (0, 0, 1)}, {"color": (1, 0, 1)}
    bold_blue = {"font": "F2", "color": (0, 0, 1)}
    title = [(300, 250, "THE RANGES"), (336, 230, "Written by A. Writer")]
    page2 = [(30, 108, "Blue Revision Draft"),
             (72, 108, "INT. ARCHIVE - DAY")]
    for k in range(6):
        page2.append((96 + 24 * k, 108,
                      f"Filler action line {k} with words enough to "
                      f"defeat the title page."))
    page2 += [(264, 280, "MARA"),
              (276, 180, "The lights are out and the gen-", blue),
              (288, 180, "erator", blue), (288, 250, "is dead.", bold_blue),
              (300, 180, "Nobody comes down here.", pink),
              (336, 108, "Call 555-123-4567 for the keys,"),
              (348, 108, "Springfield IL 62704"),
              (384, 150, "ANN"), (384, 400, "BOB"),
              (396, 108, "Hello there."), (396, 380, "Hi yourself."),
              (432, 108, "They stop and listen."),
              (696, 280, "JON"),
              (708, 180, "We keep going until the", pink),
              (720, 180, "bottom of the page", bold_blue)]
    page3 = [(30, 108, "Pink Revision Draft"),
             (72, 180, "and then you follow me.", pink),
             (108, 108, "EXT. COURTYARD - DAY"),
             (132, 108, "An older blue change surviving here.", blue)]
    return build_pdf([title, page2, page3])


CASES = RAW_CASES + [("ranges:screenplay", _ranges_pdf())]


def convert_digests() -> Dict[str, Dict[str, str]]:
    """{case name: {format: sha256 of cli convert's stdout}}."""
    out: Dict[str, Dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, raw) in enumerate(CASES):
            path = os.path.join(tmp, f"case{k}.pdf")
            with open(path, "wb") as f:
                f.write(raw)
            for fmt in FORMATS:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert cli.main(["convert", path, "--format", fmt]) == 0
                out.setdefault(name, {})[fmt] = hashlib.sha256(
                    buf.getvalue().encode("utf-8", "surrogatepass")
                ).hexdigest()
    return out


def test_cli_convert_output_is_pinned():
    with open(GOLDEN) as f:
        expected = json.load(f)
    got = convert_digests()
    assert sorted(got) == sorted(expected)
    changed = [(name, fmt) for name in got for fmt in FORMATS
               if got[name][fmt] != expected[name][fmt]]
    assert changed == []


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        json.dump(convert_digests(), f, indent=1, sort_keys=True)
        f.write("\n")
    sys.exit(0)
