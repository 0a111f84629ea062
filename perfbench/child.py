"""Run one mmwcov scenario in this process, as the ``mmwcov`` command does.

Usage: child.py MODE REPORT_JSON SCENARIO CONFIG

MODE is one of
  run    run the scenario; record when the first engine call starts;
  setup  stop at the first engine call (a set-up time sample);
  trace  run the scenario with every layer traced (see probes.py), then
         replay its multi-worker Monte Carlo calls at one worker.

The report is a JSON object written to REPORT_JSON.  ``first_engine_call``
is a ``time.monotonic()`` reading, so the parent can subtract its own;
``first_engine_cpu`` is the process's CPU time up to that call.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import probes


class _SetupDone(BaseException):
    """Unwinds the scenario at its first engine call (not an Exception, so
    no handler in the program can swallow it)."""


def _replay(tracer: probes.Tracer, run_coverage) -> dict:
    """Re-run every multi-worker ``run_coverage`` call at one worker."""
    import numpy as np

    tracer.paused = True
    one, many, mismatched = 0.0, 0.0, 0
    for plan, _, curve, seconds in tracer.multi_worker_calls:
        start = time.perf_counter()
        again = run_coverage(plan, n_workers=1)
        one += time.perf_counter() - start
        many += seconds
        if not (np.array_equal(again.p_cov, curve.p_cov)
                and np.array_equal(again.stderr, curve.stderr)):
            mismatched += len(curve.p_cov)
    return {"calls": len(tracer.multi_worker_calls), "one_worker_s": one,
            "many_workers_s": many, "mismatched_points": mismatched}


def main(mode: str, report_path: str, scenario: str, config: str) -> int:
    import numpy
    import scipy

    import mmwcov
    import mmwcov.cli
    from mmwcov.montecarlo import run_coverage

    report = {
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mmwcov": mmwcov.__version__},
        "package_dir": str(Path(mmwcov.__file__).resolve().parent),
    }

    def first_call():
        report["first_engine_call"] = time.monotonic()
        report["first_engine_cpu"] = time.process_time()
        if mode == "setup":
            raise _SetupDone

    probes.install_first_call_hook(first_call)
    tracer = None
    if mode == "trace":
        tracer = probes.Tracer()
        probes.install_tracing(tracer)

    argv = [scenario, "--config", config]
    try:
        code = mmwcov.cli.main(argv)
    except _SetupDone:
        code = 0
    report["exit_code"] = code
    if tracer is not None:
        report["replay"] = _replay(tracer, run_coverage)
        report["table"] = tracer.table()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] not in ("run", "setup", "trace"):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
