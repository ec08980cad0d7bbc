"""One timed invocation of the CLI entry point, in a fresh interpreter.

``python3 perfbench/invoke.py RESULT.json [--setup-only] -- CLI-ARGS...``

Imports :mod:`repro.experiments.cli` (the set-up a user pays on every
invocation), then calls ``main(CLI-ARGS)`` exactly as the console script
does.  CLI output goes to this process's stdout untouched; the timings
and resource usage go to ``RESULT.json``:

* ``entry`` / ``done`` — ``time.monotonic()`` at the entry call and at
  its return (the parent subtracts its own spawn stamp from ``entry``
  for the set-up time; CLOCK_MONOTONIC is shared by all processes);
* ``cpu_s`` — user+sys CPU of this process from the entry call on, plus
  every reaped child (the pool workers);
* ``peak_rss_mb`` / ``worker_peak_rss_mb`` — this process's peak RSS
  and the largest reaped child's.

``--setup-only`` stops after the import: a set-up probe.
"""

import json
import resource
import sys
import time


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    result_path = sys.argv[1]
    setup_only = sys.argv[2] == "--setup-only"
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    from repro.experiments.cli import main as cli_main

    entry = time.monotonic()
    before = resource.getrusage(resource.RUSAGE_SELF)
    status = 0
    if not setup_only:
        try:
            status = cli_main(cli_args) or 0
        except SystemExit as exc:  # argparse errors exit like the script
            status = exc.code if isinstance(exc.code, int) else 1
    done = time.monotonic()
    sys.stdout.flush()
    after = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({
            "status": status, "entry": entry, "done": done,
            "cpu_s": _cpu(after) - _cpu(before) + _cpu(children),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": after.ru_maxrss / 1024.0,
            "worker_peak_rss_mb": children.ru_maxrss / 1024.0,
        }, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
