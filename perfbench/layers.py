"""Single-process traced run: per-layer self time and exact counts.

Each engine entry point named in ``LAYERS`` is rebound, for the length
of one traced run, to a timing wrapper.  A wrapper opens a frame; on
exit the frame's duration minus the time of the wrapped frames it
enclosed is the layer's *self time*.  Code between wrapped functions is
charged to the nearest enclosing frame, so the layers partition the
traced wall except for the benchmark's own loop, which ``coverage_frac``
reports.

``LAYERS`` is the layer -> metric -> workload map the benchmark is built
around: its last field says on which workloads the layer should move
the end-to-end ``docs_per_s``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

# (metric, module, attribute, what it is, where it should move docs_per_s)
# ``attribute`` "Cls.meth" patches a method on the class; a plain name is
# rebound on the module that *calls* it, because callers bound it with
# ``from x import y`` at import time.
LAYERS: List[Tuple[str, str, str, str, str]] = [
    ("pdfnative.parse_s", "ray_script_extract.sources.pdfnative",
     "PdfDocument.__init__", "PDF object parse",
     "pdf_raw; ~7% of mixed_resume; not html_plays"),
    ("pdfnative.interp_s", "ray_script_extract.sources.pdfnative",
     "_extract_page_runs", "content-stream interpreter",
     "pdf_raw; ~7% of mixed_resume; not html_plays"),
    ("pdfnative.xml_emit_s", "ray_script_extract.sources.pdfnative",
     "pdf_to_page_xml_and_media", "page-XML serialisation (self time)",
     "pdf_raw; ~7% of mixed_resume; not html_plays"),
    ("pdfdoc.b64_s", "ray_script_extract.engine.pdfdoc",
     "extract_pdf_raw_document_with_media", "base64 decode (self time)",
     "pdf_raw; ~7% of mixed_resume; not html_plays"),
    ("pagexml.assemble_s", "ray_script_extract.engine.parse_text",
     "process_page_xml", "page-XML parse + line assembly",
     "pdf_raw and mixed_resume"),
    ("parse_text.parse_page_s", "ray_script_extract.engine.parse_text",
     "TextParser.parse_page", "block engine, per page",
     "pdf_raw and mixed_resume"),
    ("parse_text.fold_s", "ray_script_extract.engine.parse_text",
     "parse_pages_xml_full", "cross-page fold (self time)",
     "pdf_raw and mixed_resume"),
    ("htmldom.parse_s", "ray_script_extract.sources.shakespeare",
     "parse_html", "HTML tokenizer + tree build",
     "html_plays; ~31% of mixed_resume"),
    ("shakespeare.walk_s", "ray_script_extract.stages.extract",
     "parse_shakespeare_text", "play DOM walk (self time)",
     "html_plays; ~31% of mixed_resume"),
    ("extract.glue_s", "ray_script_extract.stages.extract",
     "extract_batch", "Arrow<->Python and per-span dispatch (self time)",
     "mainly html_plays"),
    ("sizebucket.s", "ray_script_extract.stages.sizebucket",
     "add_size_stats", "per-doc size stats",
     "pdf_raw and html_plays"),
    ("lineage.write_s", "ray_script_extract.stages.lineage",
     "write_partition", "parquet + fsync + sha256 lineage record",
     "mixed_resume only"),
    ("lineage.verify_s", "ray_script_extract.stages.lineage",
     "completed_partitions", "re-hash of finished output (restart cost)",
     "mixed_resume only"),
]

LAYER_METRICS = [row[0] for row in LAYERS]

# exact work counts: they repeat exactly for a given corpus
COUNTS = {"pdfnative.pages": "count", "pdfnative.objects": "count",
          "pdfnative.runs": "count", "pagexml.xml_mib": "MiB",
          "pagexml.lines": "count", "extract.spans_out": "count",
          "lineage.output_mib": "MiB"}

# every per-layer metric a traced run reports, with its unit
PER_LAYER: Dict[str, str] = {
    **{m: "s" for m in LAYER_METRICS},
    **COUNTS,
    "extract.doc_ms_p50": "ms",
    "extract.doc_ms_p99": "ms",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.docs_per_s": "docs/s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
    "extract_pipeline.floor_s": "s",
    "extract_pipeline.job_wall_s": "s",
    "extract_pipeline.engine_wall_s": "s",
    "extract_pipeline.overhead_frac": "frac",
    "docs_failed_frac": "frac",
}


class Tracer:
    """Frame stack + per-layer accumulators for one traced run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {m: 0.0 for m in LAYER_METRICS}
        self.counts: Dict[str, float] = {c: 0 for c in COUNTS}
        self.doc_s: List[float] = []
        self._child_s: List[float] = []  # one slot per open frame

    def frame(self, metric: str, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                children = self._child_s.pop()
                self.self_s[metric] += dur - children
                if self._child_s:
                    self._child_s[-1] += dur
        return wrapped

    def timed_doc(self, fn: Callable) -> Callable:
        """Per-document latency only: not a frame, so the time stays
        inside the enclosing ``extract_batch`` frame's accounting."""
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.doc_s.append(time.perf_counter() - t0)
        return wrapped

    def covered_s(self) -> float:
        return sum(self.self_s.values())

    def doc_ms(self, q: float) -> float:
        """Nearest-rank ``q`` quantile of per-document time, in ms."""
        if not self.doc_s:
            return 0.0
        ordered = sorted(self.doc_s)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx] * 1000.0


def _counting(tracer: Tracer, metric: str, fn: Callable) -> Callable:
    """Wrap ``fn`` with the exact counters that belong to its layer."""
    counts = tracer.counts
    if metric == "pdfnative.parse_s":
        def fn_counted(doc, raw):
            fn(doc, raw)
            counts["pdfnative.objects"] += len(doc.objects)
    elif metric == "pdfnative.interp_s":
        def fn_counted(doc, page):
            result = fn(doc, page)
            counts["pdfnative.pages"] += 1
            counts["pdfnative.runs"] += len(result[0])
            return result
    elif metric == "pagexml.assemble_s":
        def fn_counted(page_xml, state):
            before = len(state.line_objects)
            fn(page_xml, state)
            counts["pagexml.xml_mib"] += len(page_xml.encode()) / 2**20
            counts["pagexml.lines"] += len(state.line_objects) - before
    elif metric == "extract.glue_s":
        def fn_counted(batch):
            out = fn(batch)
            counts["extract.spans_out"] += sum(
                out.column("n_spans").to_pylist())
            return out
    elif metric == "lineage.write_s":
        def fn_counted(*args, **kwargs):
            record = fn(*args, **kwargs)
            counts["lineage.output_mib"] += record["size_bytes"] / 2**20
            return record
    else:
        return fn
    return fn_counted


@contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Install the wrappers of ``LAYERS`` for the length of the block.

    The extract stage caches the PDF entry points on its module-level
    singleton when it is built, so the singleton is dropped on entry
    and on exit; the next call rebuilds it over whatever is installed.
    """
    import importlib

    from ray_script_extract.stages import extract

    undo: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, new) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for metric, module_name, attr, _, _ in LAYERS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = owner.__dict__[attr]
            # counters sit outside the frame: their cost is tracing
            # overhead, not the layer's
            patch(owner, attr, _counting(tracer, metric,
                                         tracer.frame(metric, fn)))
        patch(extract.ExtractorActor, "extract_doc",
              tracer.timed_doc(extract.ExtractorActor.extract_doc))
        extract._EXTRACTOR_SINGLETON = None
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        extract._EXTRACTOR_SINGLETON = None


def layer_metrics(tracer: Tracer, traced_wall_s: float,
                  untraced_wall_s: float, n_docs: int) -> Dict[str, float]:
    """The traced run's per-layer metrics, named as in BENCHMARK.json."""
    out: Dict[str, float] = dict(tracer.self_s)
    out.update(tracer.counts)
    out["extract.doc_ms_p50"] = tracer.doc_ms(0.50)
    out["extract.doc_ms_p99"] = tracer.doc_ms(0.99)
    out["trace.wall_s"] = traced_wall_s
    out["trace.untraced_wall_s"] = untraced_wall_s
    out["trace.docs_per_s"] = n_docs / traced_wall_s
    out["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    out["trace.coverage_frac"] = tracer.covered_s() / traced_wall_s
    return out
