"""Deterministic synthetic interleaved-document corpus generator.

Produces the engine's input table shape (FIXTURES.md §1):
``(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)``
mixing Shakespeare-shaped HTML documents, plain text, and opaque media
spans.  Fully deterministic from (seed, index) — no wall clock, no
global RNG — so any shard can be regenerated independently at any
scale (the property a 10^12-doc corpus build relies on).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List

import pyarrow as pa

from .schema import DOC_SCHEMA

_WORDS = (
    "castle night watch king ghost crown sword honor throne vow blood "
    "storm sea raven candle mirror letter poison dagger garden wall "
    "march plot feast mask grief joy oath star moon tide").split()

_NAMES = ("BERNARDO FRANCISCO HORATIO MARCELLUS CLAUDIUS GERTRUDE OPHELIA "
          "LAERTES POLONIUS REYNALDO OSRIC FORTINBRAS").split()

_ROMAN = ("I", "II", "III", "IV", "V")


def _rng(seed: int, index: int) -> random.Random:
    h = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def _sentence(r: random.Random, lo: int = 4, hi: int = 10) -> str:
    n = r.randint(lo, hi)
    words = [r.choice(_WORDS) for _ in range(n)]
    words[0] = words[0].capitalize()
    return " ".join(words) + r.choice([".", "!", "?", ",", ":"])


def make_play_html(seed: int, index: int, n_acts: int = 1,
                   speeches_per_scene: int = 6) -> str:
    """One deterministic Shakespeare-shaped HTML document."""
    r = _rng(seed, index)
    title = f"Play {index}"
    parts: List[str] = [
        "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">",
        "<html>", "<head>", f"<title>{title}: Entire Play", "</title>", "</head>",
        "<body>",
        "<table width=\"100%\"><tr><td class=\"nav\">"
        "<a href=\"/x\">nav boilerplate</a></table>",
    ]
    speech_num = 1
    for act in range(n_acts):
        parts.append(f"<H3>ACT {_ROMAN[act % 5]}</h3>")
        for scene in range(r.randint(1, 2)):
            parts.append(
                f"<h3>SCENE {_ROMAN[scene % 5]}. {_sentence(r, 3, 5)}</h3>")
            parts.append("<p><blockquote>")
            parts.append(f"<i>Enter {r.choice(_NAMES)} and {r.choice(_NAMES)}</i>")
            parts.append("</blockquote>")
            for _ in range(speeches_per_scene):
                name = r.choice(_NAMES)
                parts.append(f"<A NAME=speech{speech_num}><b>{name}</b></a>")
                speech_num += 1
                parts.append("<blockquote>")
                for li in range(r.randint(1, 4)):
                    prefix = "[Aside] " if r.random() < 0.08 else ""
                    parts.append(
                        f"<A NAME={act+1}.{scene+1}.{li+1}>{prefix}{_sentence(r)}</A><br>")
                if r.random() < 0.15:
                    parts.append(f"<p><i>Exit {name}</i></p>")
                parts.append("</blockquote>")
    parts.append("</body></html>")
    return "\n".join(parts)


def _scenes(r: random.Random, n_scenes: int) -> List[Dict]:
    scenes = []
    for s in range(n_scenes):
        speeches = []
        for _ in range(r.randint(2, 4)):
            name = r.choice(_NAMES)
            paren = "(quietly)" if r.random() < 0.2 else None
            dialog = ["I " + _sentence(r, 4, 8).lower()
                      for _ in range(r.randint(1, 3))]
            speeches.append((name, paren, dialog))
        scenes.append({
            "slug": f"{'INT' if r.random() < 0.5 else 'EXT'}. "
                    f"{r.choice(_WORDS).upper()} - "
                    f"{'DAY' if r.random() < 0.5 else 'NIGHT'}",
            "action": [_sentence(r, 6, 12) + " We see " + r.choice(_WORDS) + "."
                       for _ in range(r.randint(1, 2))],
            "speeches": speeches,
            "transition": "CUT TO:" if r.random() < 0.3 else None,
        })
    return scenes


def make_screenplay_pages(r: random.Random, n_pages: int) -> List[str]:
    from .sources.pagexml_fixtures import screenplay_page

    return [screenplay_page(p + 1, _scenes(r, r.randint(2, 3)))
            for p in range(n_pages)]


# cumulative kind-roll thresholds for (html, pdf_page_xml, pdf_raw);
# the remainder is plain text.  'pdf_heavy' matches BASELINE.json's
# input_hint (PDF-heavy interleaved mix): 55% raw authored PDFs
# through the native front-end, 20% page-XML, 15% HTML, 10% text.
CORPUS_MIXES = {
    "default": (0.50, 0.75, 0.85),
    "pdf_heavy": (0.15, 0.35, 0.90),
}


def make_doc(seed: int, index: int, size_class: str = "small",
             mix: str = "default") -> Dict:
    """One document row: interleaved html/text/media spans.

    size_class: 'small' (1 act), 'medium' (~10 acts), 'large' (~60 acts)
    — drives the skew/bucketing tests (FIXTURES.md §7).
    mix: CORPUS_MIXES key — span-kind proportions ('default' keeps the
    historical 50/25/10/15 split so existing corpora stay bit-stable).
    """
    r = _rng(seed, index ^ 0x5EED)
    n_acts = {"small": 1, "medium": 10, "large": 60}[size_class]
    t_html, t_xml, t_pdf = CORPUS_MIXES[mix]
    spans: List[Dict] = []
    off = 0

    def add(kind: str, text: str = "", media_ref: str = "") -> None:
        nonlocal off
        spans.append({"kind": kind, "text": text, "media_ref": media_ref,
                      "offset": off})
        off += 1

    if r.random() < 0.15:
        digest = hashlib.sha256(f"img:{seed}:{index}".encode()).hexdigest()
        add("image", media_ref=f"img://sha256/{digest}")
    kind_roll = r.random()
    if kind_roll < t_html:
        add("html", text=make_play_html(seed, index, n_acts=n_acts))
    elif kind_roll < t_xml:
        for page_xml in make_screenplay_pages(r, n_pages=max(2, n_acts)):
            add("pdf_page_xml", text=page_xml)
    elif kind_roll < t_pdf:
        import base64

        from .sources.pdf_fixtures import build_pdf, screenplay_pdf_lines

        scene_pages = [screenplay_pdf_lines(_scenes(r, 2))
                       for _ in range(max(2, min(n_acts, 6)))]
        add("pdf_raw",
            text=base64.b64encode(build_pdf(scene_pages)).decode("ascii"))
    else:
        for _ in range(r.randint(1, 3) * n_acts):
            add("text", text=_sentence(r, 6, 14))
    if r.random() < 0.10:
        digest = hashlib.sha256(f"media:{seed}:{index}".encode()).hexdigest()
        add("media", media_ref=f"img://sha256/{digest}")
    return {"doc_id": f"doc-{index:08d}", "spans": spans}


def size_class_for(index: int) -> str:
    """~90% small, ~9% medium, ~1% large (deterministic by index)."""
    m = index % 100
    if m == 0:
        return "large"
    if m < 10:
        return "medium"
    return "small"


def make_corpus_table(num_docs: int, seed: int = 42,
                      start_index: int = 0, skewed: bool = True,
                      mix: str = "default") -> pa.Table:
    rows = [make_doc(seed, i, size_class_for(i) if skewed else "small",
                     mix=mix)
            for i in range(start_index, start_index + num_docs)]
    return pa.Table.from_pylist(rows, schema=DOC_SCHEMA)


def write_corpus_parquet(num_docs: int, out_dir: str, seed: int = 42,
                         skewed: bool = True, docs_per_shard: int = 250,
                         mix: str = "default") -> str:
    """Materialize the synthetic corpus as partitioned parquet (one
    file per shard, parallel Ray tasks).  Idempotent: returns early if
    the expected shard files already exist.  This gives benchmarks the
    real 100 TB shape — extraction reads Arrow from storage instead of
    re-generating Python dicts through the object store."""
    import os

    import pyarrow.parquet as pq

    import ray

    shards = [(s, min(docs_per_shard, num_docs - s))
              for s in range(0, num_docs, docs_per_shard)]
    paths = [os.path.join(out_dir, f"shard-{i:05d}.parquet")
             for i in range(len(shards))]
    expected = {os.path.basename(p) for p in paths}
    if os.path.isdir(out_dir):
        # stale SURPLUS shards from a previous larger run would be
        # read back as extra documents (same bug class as the shard-
        # size collision fixed earlier) — remove before the
        # idempotence check
        for name in os.listdir(out_dir):
            if (name.startswith("shard-") and name.endswith(".parquet")
                    and name not in expected):
                os.remove(os.path.join(out_dir, name))
    if all(os.path.exists(p) for p in paths):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)

    @ray.remote(num_cpus=1)
    def write_shard(start: int, count: int, path: str) -> int:
        rows = [make_doc(seed, i, size_class_for(i) if skewed else "small",
                         mix=mix)
                for i in range(start, start + count)]
        table = pa.Table.from_pylist(rows, schema=DOC_SCHEMA)
        tmp = path + ".tmp"
        pq.write_table(table, tmp)
        os.replace(tmp, path)
        return count

    ray.get([write_shard.remote(s, c, p)
             for (s, c), p in zip(shards, paths)])
    return out_dir
