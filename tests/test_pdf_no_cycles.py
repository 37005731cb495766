"""The raw-PDF front-end leaves no cyclic garbage: everything
``pdf_page_records`` builds for a document (runs, fonts, the parsed
object table) is freed by reference counting when the caller drops it,
not at the collector's next full pass."""

from __future__ import annotations

import base64
import gc
from collections import Counter

from ray_script_extract.corpus import make_doc
from ray_script_extract.sources.pdfnative import pdf_page_records
from tests.test_pdf_raw_direct import CASES


def _pdf_heavy_raws():
    for index in range(100):
        spans = make_doc(0, index, mix="pdf_heavy")["spans"]
        raws = [base64.b64decode(s["text"]) for s in spans
                if s["kind"] == "pdf_raw"]
        if raws:
            return raws
    raise AssertionError("no pdf_raw span in the first 100 pdf_heavy docs")


def test_pdf_page_records_leave_no_cyclic_garbage():
    raws = [raw for _, raw in CASES] + _pdf_heavy_raws()
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        for raw in raws:
            pdf_page_records(raw)
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if collecting:
            gc.enable()
    assert found == 0, kinds.most_common(5)
