"""Driver contract for the graft builder (Ray Data target).

The driver initialises Ray BEFORE importing this module; nothing here
(or in the library) calls ``ray.init`` / ``ray.shutdown``.

* ``entry()``     — flagship extraction pipeline on sf0.001.
* ``queries()``   — one callable per implemented operator (SURVEY.md §2
  + the training-data-pipeline operator families), exactly the
  ``_REGISTRY`` table of ``pipelines/queries.py``.
* ``oracle_sql()``— DuckDB-equivalent SQL for every SQL-expressible
  query (same column names, exact integer-cents numerics).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def entry() -> Any:
    """Flagship: documents → interleaved corpus → extracted spans."""
    from ray_script_extract.pipelines.flagship import flagship_extract

    return flagship_extract("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from ray_script_extract.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from ray_script_extract.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
