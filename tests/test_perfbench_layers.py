"""The traced benchmark's layer map still fits the program.

``perfbench/layers.py`` rebinds each ``LAYERS`` entry point by name for
the length of a traced run.  Every row must name a function its owner
defines itself, tracing must not change a document's output, and the
layers of the three input kinds must each see time.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pyarrow as pa
import pytest

from ray_script_extract.corpus import make_doc
from ray_script_extract.schema import DOC_SCHEMA
from ray_script_extract.stages import extract

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc_of_kind(kind: str, mix: str) -> dict:
    for index in range(200):
        doc = make_doc(0, index, "small", mix=mix)
        if any(span["kind"] == kind for span in doc["spans"]):
            return doc
    raise AssertionError(f"no {kind} document in the first 200")


@pytest.mark.parametrize("row", _layers().LAYERS, ids=lambda row: row[0])
def test_every_layer_names_a_function_its_owner_defines(row):
    _, module_name, attr, _, _ = row
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = owner.__dict__[cls_name]
    assert callable(owner.__dict__[attr])


def test_tracing_keeps_the_output_and_times_each_input_kind():
    layers = _layers()
    batch = pa.Table.from_pylist(
        [_doc_of_kind("html", "default"),
         _doc_of_kind("pdf_page_xml", "default"),
         _doc_of_kind("pdf_raw", "pdf_heavy")], schema=DOC_SCHEMA)
    extract._EXTRACTOR_SINGLETON = None
    untraced = extract.extract_batch(batch)
    tracer = layers.Tracer()
    with layers.traced(tracer):
        traced = extract.extract_batch(batch)
    assert traced.equals(untraced)
    assert untraced.column("n_spans").to_pylist()[1] > 0
    assert untraced.column("n_spans").to_pylist()[2] > 0
    for metric in ("parse_text.parse_page_s", "pagexml.assemble_s",
                   "pdfnative.parse_s", "pdfnative.interp_s",
                   "shakespeare.walk_s"):
        assert tracer.self_s[metric] > 0, metric
