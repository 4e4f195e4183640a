"""One-machine convenience: a draining service plus N spawned local workers.

``execute_sweep(sweep, workers=N)`` (and ``repro-eval explore
--distributed N``) lands here: a :class:`SweepService` with
``drain_when_idle=True`` bound to an ephemeral localhost port, the sweep
submitted to it under its store name, *N* worker processes spawned against
it, and a watchdog that fails fast if the whole fleet dies before the sweep
is done (a lone service would otherwise wait forever for workers that will
never return).  The summary dict is shaped exactly like
:func:`repro.explore.execute_sweep`'s, plus a ``distrib`` stats block.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, Optional, Sequence, Tuple

from repro.distrib.service import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_LEASE_TIMEOUT,
    ServiceError,
    SweepService,
)
from repro.distrib.worker import worker_process_entry
from repro.engine.results import ResultStore
from repro.explore.sweep import SweepSpec


def execute_sweep_distributed(sweep: SweepSpec,
                              store: Optional[ResultStore] = None,
                              name: str = "sweep",
                              workers: int = 2,
                              shard: Optional[Tuple[int, int]] = None,
                              resume: bool = False,
                              progress: bool = False,
                              batch_size: int = DEFAULT_BATCH_SIZE,
                              lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                              checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                              worker_options: Optional[Sequence[Dict]] = None,
                              timeout: Optional[float] = None,
                              cache_dir: Optional[str] = None) -> Dict:
    """Run *sweep* on a local service and *workers* spawned processes.

    ``worker_options`` optionally carries one kwargs dict per worker
    (``name``, ``throttle`` — see :func:`repro.distrib.worker.run_worker`);
    tests and benchmarks use it to manufacture deterministic stragglers.
    ``cache_dir`` is handed to every worker (unless its options dict
    overrides it) so the whole fleet shares one persistent program cache.
    ``batch_size`` is the lease-size ceiling of the service's adaptive
    cuts.  The resulting store is byte-identical to a monolithic
    ``execute_sweep`` of the same spec.
    """
    if workers < 1:
        raise ValueError("a distributed run needs at least 1 worker")
    options = list(worker_options or [])
    if len(options) > workers:
        raise ValueError(f"{len(options)} worker_options for {workers} workers")
    options += [{}] * (workers - len(options))

    service = SweepService(store=store, lease_timeout=lease_timeout,
                           checkpoint_every=checkpoint_every,
                           drain_when_idle=True, progress=progress)
    # Submitting before start() validates the sweep (bad batch sizes,
    # resume without a store, cell-key collisions) before anything listens.
    service.submit(sweep, name, shard=shard, resume=resume,
                   batch_size=batch_size)
    service.start()

    # Spawn (not fork): the service already runs server threads, and
    # forking a multi-threaded parent can deadlock the child on inherited
    # lock state.  Spawned workers import a clean interpreter.
    context = multiprocessing.get_context("spawn")
    processes = []
    try:
        for index, kwargs in enumerate(options):
            kwargs = dict(kwargs)
            kwargs.setdefault("name", f"local-{index}")
            if cache_dir is not None:
                kwargs.setdefault("cache_dir", cache_dir)
            process = context.Process(
                target=worker_process_entry,
                args=(service.host, service.port),
                kwargs=kwargs, name=f"sweep-worker-{index}", daemon=True)
            process.start()
            processes.append(process)

        waited = 0.0
        while not service.wait(name, 0.5):
            waited += 0.5
            if timeout is not None and waited >= timeout:
                raise ServiceError(
                    f"distributed sweep did not complete within {timeout} s")
            if not any(process.is_alive() for process in processes):
                raise ServiceError(
                    "every local worker exited before the sweep completed "
                    f"(exit codes {[p.exitcode for p in processes]})")
        return service.summary(name)
    finally:
        service.shutdown()
        for process in processes:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
