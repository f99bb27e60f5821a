"""Distributed grid execution: lease-based work-stealing over a shared store.

The out-of-process execution path of the scenario runner (the other is
the serial in-process oracle): any number of independent worker
*processes* — the spawned workers behind ``run_grid(workers=N)``, workers
started by hand or by a scheduler, or several hosts sharing a synced
store directory — cooperatively drain one
:class:`~repro.experiments.runner.spec.ScenarioGrid` with no coordinator.
All shared state is files under the store root:

* ``results/`` + ``stages/`` — the content-addressed
  :class:`~repro.experiments.runner.store.ResultStore` (a scenario is done
  when its result file exists);
* ``leases/`` — in-flight claims (:mod:`repro.distributed.lease`): atomic
  O_EXCL creation is the claim, a heartbeat on the file's mtime is
  liveness, and an expired lease is a crashed worker whose scenario gets
  stolen and re-executed.

Because every scenario reseeds from its spec's content hash, the combined
store of N workers (any interleaving, crashes included) is bit-identical
to a serial run, and stores produced on different hosts can be unioned
with :func:`~repro.distributed.merge.merge_stores` (conflicting payloads
are a hard error, not a silent pick).

Entry points: ``python -m repro.distributed`` runs one worker;
``python -m repro.experiments work`` does the same for registered
experiment suites, ``... merge`` unions stores, and ``... report
--follow`` streams an incrementally re-rendered markdown report while
workers drain.

Import from the submodules (:mod:`~repro.distributed.lease`,
:mod:`~repro.distributed.worker`, :mod:`~repro.distributed.merge`).  The
package itself imports nothing: ``python -m repro.distributed`` runs this
file before its ``__main__`` pins BLAS threads, and the worker loads numpy.
"""
