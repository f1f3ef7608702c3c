"""Seeded chaos harness for the supervised serve daemon.

``python -m repro.chaos`` starts a real ``repro.serve.supervisor``
subprocess on a memo directory, replays seeded load-generator traffic
at it while a seed-derived schedule injects faults (``serve.respond``,
``serve.worker_heartbeat``) *and* SIGKILLs live workers mid-traffic,
then checks the invariants the serve tier promises to keep under fire:

* every request gets exactly one response carrying its own echo token
  (no losses, duplicates, or cross-wired responses);
* every served fingerprint is byte-identical to the offline harness
  oracle;
* the fleet's shared memo directory scans clean after every crash
  (atomic tmp-file + rename writes of checksummed entries leave no
  torn entry a reader would accept);
* the error taxonomy stays bounded (only known statuses/codes);
* a SIGTERM drain finishes in-flight requests, and a fleet restarted
  on the same memo directory serves the same bytes from it.

The schedule — fault spec, kill points, targeted worker slots — is a
pure function of ``--seed``, so a failure reproduces exactly by
re-running with the same seed.  Results land in ``BENCH_chaos.json``.
"""

from repro.chaos.orchestrator import main, plan_schedule

__all__ = ["main", "plan_schedule"]
