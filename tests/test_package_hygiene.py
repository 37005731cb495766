"""Package hygiene: no test-only definitions and no twin function bodies.

* Every top-level def, class and constant of ``ray_script_extract/`` is
  named by program code: the package outside the definition itself,
  ``tools/``, ``bench.py``, ``__ray_entry__.py`` or ``perfbench/``.  A
  name counts when code uses it (a name, an attribute, an import, or a
  string that spells it, as ``perfbench/layers.py`` patches layers by
  name); a docstring or comment that mentions it does not.  What only
  the tests reach sits in ``ALLOWED_TEST_ONLY`` with its reason.
* No two functions of the package or ``tools/`` have the same body
  (compared as ASTs, docstrings left out) over two or more lines: one
  job, one definition.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "ray_script_extract").rglob("*.py"))
TOOLS = sorted((ROOT / "tools").rglob("*.py"))
OTHER_PROGRAM = ([ROOT / "bench.py", ROOT / "__ray_entry__.py"]
                 + sorted((ROOT / "perfbench").rglob("*.py")))

ALLOWED_TEST_ONLY = {
    "__version__": "package metadata, read by users, not by code",
    "read_corpus": "the Lance table gate: Lance when installed, else "
                   "parquet; kept for the Lance round trip",
    "write_corpus": "the Lance table gate's writer, paired with "
                    "read_corpus",
    "predict_lang": "test reference: the per-document twin of the "
                    "distributed language id",
    "cm_point_estimates": "test reference: Count-Min point estimates "
                          "for the sketch's error bounds",
    "decode_image_real": "test surface: the real PNG/PPM/JPEG decode "
                         "beside the multimodal stage's fake features",
    "parse_shakespeare_dom": "test reference: the DOM walk the one-pass "
                             "HTML reader must equal",
    "pdf_to_page_xml": "test reference: the page-XML serializer the raw "
                       "PDF path must equal",
    "extract_pdf_raw_document": "test reference: the raw PDF path "
                                "without its media",
    "convert_pdf_xml_document": "test reference: page XML to JSON or "
                                "Fountain, the twin of the raw PDF "
                                "converter",
    "reduce_spaces": "test surface: the PHP blank-run collapse the "
                     "text property tests pin",
}

_IDENT = re.compile(r"[A-Za-z_][\w.]*\Z")


def _top_level_names(tree: ast.Module) -> Iterator[Tuple[str, ast.stmt]]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _used_names(tree: ast.AST, skip: Tuple[int, int] = (0, -1)) -> Set[str]:
    """Names code uses in ``tree``, outside the lines ``skip``."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if skip[0] <= line <= skip[1]:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
            if node.asname:
                out.add(node.asname)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _IDENT.match(node.value)):
            out.update(node.value.split("."))
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@functools.lru_cache(maxsize=None)
def _test_only_names() -> Dict[str, str]:
    """Top-level package names no program code uses, with their sites."""
    trees = {path: _parse(path) for path in PACKAGE + TOOLS + OTHER_PROGRAM}
    used_in = {path: _used_names(tree) for path, tree in trees.items()}
    out: Dict[str, str] = {}
    for path in PACKAGE:
        for name, node in _top_level_names(trees[path]):
            if any(name in used for other, used in used_in.items()
                   if other != path):
                continue
            if name not in _used_names(trees[path],
                                       (node.lineno, node.end_lineno)):
                out[name] = f"{path.relative_to(ROOT)}::{name}"
    return out


def test_every_package_definition_is_used_by_program_code():
    unused = sorted(site for name, site in _test_only_names().items()
                    if name not in ALLOWED_TEST_ONLY)
    assert unused == [], (
        "reached by tests only; delete it, or add it to "
        f"ALLOWED_TEST_ONLY with a reason: {unused}")


def test_allowed_test_only_names_are_still_test_only():
    stale = sorted(set(ALLOWED_TEST_ONLY) - set(_test_only_names()))
    assert stale == [], f"gone or used by program code now: {stale}"


def _body_key(fn: ast.FunctionDef) -> "str | None":
    body = fn.body
    if (isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if not body or body[-1].end_lineno - body[0].lineno < 1:
        return None
    return ast.dump(ast.Module(body=body, type_ignores=[]))


def test_no_two_functions_share_a_body():
    groups: Dict[str, List[str]] = defaultdict(list)
    for path in PACKAGE + TOOLS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = _body_key(node)
                if key is not None:
                    groups[key].append(
                        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    twins = [sites for sites in groups.values() if len(sites) > 1]
    assert twins == [], f"identical function bodies: {twins}"
