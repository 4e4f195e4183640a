"""Distributed sweep: a sweep service + two workers, one killed mid-lease.

End-to-end demonstration of the ``repro.distrib`` subsystem — and the
in-process half of CI's distributed smoke job:

1. a :class:`SweepService` that drains when idle serves a 9-cell Figure
   5/6-style sweep with small dynamic batches and journal checkpoints;
2. two spawned workers connect; one (the "victim") is SIGKILLed while it
   holds a lease, so its batch is re-queued and finished by the survivor;
3. the resulting store is compared **byte for byte** against a monolithic
   ``execute_sweep`` of the same spec (the script exits non-zero on any
   difference);
4. the Figure 5/6 report is rebuilt from the store alone — no
   re-simulation.

Run with::

    python examples/distributed_sweep.py [output-dir]
"""

import multiprocessing
import sys
import tempfile
import time
from pathlib import Path

from repro.distrib import SweepService, worker_process_entry
from repro.engine import ExperimentEngine, ProgramCache, ResultStore
from repro.explore import SweepSpec, execute_sweep, report_from_store


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    sweep = SweepSpec(benchmarks=("crc32", "fdct", "2dfir"),
                      x_limits=(1.1, 1.5, 2.0))

    store = ResultStore(out / "distributed")
    service = SweepService(store=store, checkpoint_every=4,
                           drain_when_idle=True, progress=True)
    service.submit(sweep, "sweep", batch_size=2)
    service.start()
    print(f"service on 127.0.0.1:{service.port} "
          f"({sweep.size} cells, batches of at most 2)")

    # Spawn, not fork: the service runs server threads in this process.
    context = multiprocessing.get_context("spawn")

    def spawn(**kwargs):
        process = context.Process(
            target=worker_process_entry,
            args=(service.host, service.port),
            kwargs=kwargs, daemon=True)
        process.start()
        return process

    # The victim crawls (2 s of artificial work per cell) so there is a
    # wide-open window to kill it while it holds a lease.
    victim = spawn(name="victim", throttle=2.0)
    steady = spawn(name="steady")

    try:
        deadline = time.monotonic() + 120.0
        while service.job_stats("sweep")["leases"] < 2:
            if time.monotonic() > deadline:
                print("workers never took their leases", file=sys.stderr)
                return 1
            time.sleep(0.05)
        victim.kill()
        print("killed the victim worker mid-lease; its batch will be "
              "re-leased")

        if not service.wait("sweep", timeout=600.0):
            print("sweep did not complete within 600 s", file=sys.stderr)
            return 1
        summary = service.summary("sweep")
    finally:
        service.shutdown()
    victim.join(timeout=10.0)
    steady.join(timeout=60.0)
    stats = summary["distrib"]
    print(f"sweep complete: {summary['computed']} cells via "
          f"{stats['workers']} workers, {stats['requeued_batches']} batches "
          f"re-leased, {stats['duplicate_records']} duplicate completions")
    print(f"store: {summary['path']}")

    # The whole point: the fleet's store is byte-identical to a monolithic
    # run of the same spec, dead worker and all.
    reference = ResultStore(out / "reference")
    execute_sweep(sweep, store=reference,
                  engine=ExperimentEngine(cache=ProgramCache()))
    identical = (store.path_for("sweep").read_bytes()
                 == reference.path_for("sweep").read_bytes())
    print(f"byte-identical to the monolithic reference: {identical}")
    if not identical:
        return 1

    report = report_from_store(store)
    print("\nFigure 5/6 report rebuilt from the stored records alone:")
    for label, size in report["summary"]["frontier_sizes"].items():
        print(f"  frontier of {label}: {size} points")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
