"""Dataset-planning pipelines: everything here runs on the driver that
builds a ``ray.data.Dataset``, so importing this package tunes Ray
Data's read floor for the small inputs of this engine."""


def tune_data_context() -> None:
    """Floor read parallelism at 2× the CPUs instead of Ray's 200.

    Ray 2.49 splits EVERY ``read_*`` into at least
    ``read_op_min_num_blocks = 200`` blocks regardless of input size,
    so a 10 MB dimension/documents read becomes 200 ~50 KB tasks whose
    dispatch alone costs ~2-3 s on this box — the dominant cost of
    every small-input pipeline (measured: read+map+count over sf0.1
    documents is 2.9 s at the default floor vs 0.9 s at 32 blocks).

    Block counts for LARGE inputs are unaffected: past ~25 GB the
    size-based splitter (``target_max_block_size`` = 128 MB) already
    produces more than 2×CPU blocks, and we never LOWER a floor that
    is already below Ray's default — ``min`` with the current value
    keeps any deliberately raised setting.  At cluster scale (2 × CPUs
    > 200) the floor stays at Ray's default."""
    import os

    try:
        from ray.data.context import DataContext

        cpus = os.cpu_count() or 8
        try:
            import ray

            if ray.is_initialized():
                cpus = int(ray.cluster_resources().get("CPU", 0)) or cpus
        except Exception:
            pass
        ctx = DataContext.get_current()
        floor = max(2 * cpus, 16)
        ctx.read_op_min_num_blocks = min(ctx.read_op_min_num_blocks, floor)
    except Exception:
        pass


tune_data_context()
