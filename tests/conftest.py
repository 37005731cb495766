"""Shared pytest fixtures. Ray is initialised ONCE per session."""

from __future__ import annotations

import contextlib
import importlib

import pytest

#: Every budget a pipeline operator reads at call time to choose
#: between its bounded plan (broadcast / driver-side fold) and its
#: scale plan (partitioned join / keyed exchange).
PLAN_BUDGETS = (
    ("joins", "_BROADCAST_LOOKUP_ROWS"),
    ("dedup", "_DRIVER_CC_EDGES"),
    ("dedup", "_KEEP_BEST_BROADCAST_ROWS"),
    ("text_analysis", "_VOCAB_BROADCAST_ROWS"),
    ("text_analysis", "_BG_BROADCAST_ROWS"),
    ("text_analysis", "_PMI_BROADCAST_ROWS"),
    ("decontam", "_BENCH_HASH_CAP"),
    ("similarity", "_BROADCAST_VERIFY_BYTES"),
    ("clustering", "_DRIVER_COMBINE_ROWS"),
)


@pytest.fixture(scope="session")
def ray_session():
    import os

    import ray

    # inherited by raylet → every worker: large allocations come from
    # the reusable heap (this box's page faults run at only ~MB/s; see
    # ray_script_extract._tune_malloc)
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", "1073741824")
    os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", "1073741824")
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True)
    yield
    ray.shutdown()


@pytest.fixture
def scale_plans():
    """``with scale_plans(): ...`` sets every ``PLAN_BUDGETS`` entry to
    -1, so no input fits and each operator takes the plan it runs past
    its budget at full scale; ``scale_plans(False)`` leaves the defaults.
    Outside the block the defaults hold, so one test can compare both
    plans on the same input.  Consume results inside the block, so no
    plan choice deferred into a lazy Dataset escapes the pin."""
    @contextlib.contextmanager
    def pinned(on: bool = True):
        with pytest.MonkeyPatch.context() as m:
            for mod, attr in PLAN_BUDGETS if on else ():
                m.setattr(importlib.import_module(
                    f"ray_script_extract.pipelines.{mod}"), attr, -1)
            yield
    return pinned
