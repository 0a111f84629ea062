"""mmwcov benchmark: runs a workload of CLI scenarios and prints its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mc_sweep [--seed 20240] [--seconds 30] [--trace 0|1]

Tests of the benchmark itself: ``python3 -m pytest perfbench``.  To rebuild
the stored reference outputs: ``python3 perfbench/check.py``.

Every scenario runs in a fresh Python process through ``mmwcov.cli.main``
with a generated config (child.py), so no state carries between scenarios.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (curve points, see check.py) and ``metrics``; the
line before it records the machine, versions and run settings.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Times are
CPU seconds (user plus system, every thread) scaled to a reference machine
speed by a kernel timed on the program's CPUs while it runs (speed.py).
Raw wall times of the same code on a shared host spread by more than the
bounds: the host takes cores away and changes their speed.  CPU time
leaves out the first and the scaling cancels most of the second.  The
scenario processes are pinned to one CPU per worker.

* ``cpu_s``: workload CPU time, the sum over its scenarios of the median
  scaled CPU time of the scenario's processes, each taken from the
  process's rusage.  The scenarios run round-robin, at least once each,
  for as many turns as fit in ``--seconds``;
* ``setup_s``: scaled CPU time of a scenario process from its start
  through imports and ``validate_config`` to its first engine call; median
  over every scenario process of the run plus SETUP_PROBES processes
  stopped at that call;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any scenario process.

The line before the result records the raw wall and CPU times and the
probe's kernel times as well.

``--trace 1`` runs one plain pass and one traced pass (probes.py) and
reports the per-layer metrics of BENCHMARK.json, the tracing overhead
(traced minus plain wall time, unscaled) and the Monte Carlo trial
throughput of the plain pass.  ``--seconds`` does not apply to it.  The predicted effect of
each layer metric is in rationale.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import probes
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
STATE = RUNS / "state.json"
DEFAULT_SEED = 20240
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class Workload:
    scenarios: tuple
    engine: str
    trials: int
    workers: int


# Why each workload exists is recorded in BENCHMARK.json and rationale.json.
WORKLOADS = {
    "mc_sweep": Workload(("fig6", "fig7"), "mc", 200_000, 2),
    "analytic_sweep": Workload(("fig6", "fig7"), "analytic", 200_000, 1),
    "dominant_fig8": Workload(("fig8",), "dominant", 20_000, 1),
}


def work_dir(name: str) -> Path:
    return RUNS / name


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MMWCOV_")}   # env overrides would alter the config
    env["PYTHONPATH"] = str(SRC)
    # numpy's OpenBLAS starts a helper thread per CPU; in fig8 one of them
    # used about a tenth of a core beside the program and competed with the
    # program's own threads for the cores.  Results do not depend on it.
    env.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    return env


def write_config(workload: Workload, seed: int, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "run.cfg"
    path.write_text(
        f"run.engines = {workload.engine}\n"
        f"run.trials = {workload.trials}\n"
        f"run.workers = {workload.workers}\n"
        f"run.seed = {seed}\n"
        f"run.out_dir = {out_dir}\n",
        encoding="utf-8")
    return path


def spawn(mode: str, scenario: str, config: Path) -> dict:
    """Run child.py once; returns wall and CPU time, set-up time, max RSS and its report."""
    out_dir = config.parent
    report_path = out_dir / f"{scenario}.{mode}.json"
    report_path.unlink(missing_ok=True)
    with open(out_dir / f"{scenario}.{mode}.stderr", "w", encoding="utf-8") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, str(report_path), scenario, str(config)],
            stdout=subprocess.DEVNULL, stderr=err, env=_child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)   # wait4 gives the child's rusage
            wall = time.monotonic() - start
        finally:
            killer.cancel()
            if status is None:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = json.loads(report_path.read_text()) if report_path.is_file() else {}
    first = report.get("first_engine_call")
    return {"ok": proc.returncode == 0 and bool(report), "code": proc.returncode,
            "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "setup": None if first is None else first - start,
            "setup_cpu": report.get("first_engine_cpu"),
            "rss_mb": usage.ru_maxrss / 1024.0, "report": report,
            "stderr": out_dir / f"{scenario}.{mode}.stderr"}


def run_pass(workload: Workload, seed: int, out_dir: Path, mode: str) -> dict:
    """Run every scenario of the workload once, into ``out_dir``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    config = write_config(workload, seed, out_dir)
    runs = {s: spawn(mode, s, config) for s in workload.scenarios}
    return {"dir": out_dir, "runs": runs, "wall": sum(r["wall"] for r in runs.values())}


def check_pass(workload: Workload, seed: int, p: dict, reference: dict, hashes: dict):
    """(attempted, failed, problems) over every curve point of one pass."""
    attempted = failed = 0
    problems = []
    for scenario, r in p["runs"].items():
        expected = reference["values"][scenario]
        parts = [check.check_curves(p["dir"] / f"{scenario}_{workload.engine}.csv",
                                    workload.engine, expected,
                                    f"seed={seed} workers={workload.workers} {scenario}", hashes)]
        if scenario == "fig8":
            parts.append(check.check_discrepancies(p["dir"] / "discrepancies.json",
                                                   reference["discrepancies"]))
        n = sum(a for a, _, _ in parts)
        if not r["ok"]:
            tail = r["stderr"].read_text(encoding="utf-8", errors="replace")[-2000:]
            attempted, failed = attempted + n, failed + n
            problems.append(f"{scenario} exited with code {r['code']}: {tail}")
            continue
        attempted += n
        failed += sum(f for _, f, _ in parts)
        problems += [msg for _, _, ps in parts for msg in ps]
    return attempted, failed, problems


def _load_state() -> dict:
    return json.loads(STATE.read_text(encoding="utf-8")) if STATE.is_file() else {}


def _save_state(state: dict) -> None:
    tmp = STATE.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, STATE)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and the run's context."""
    workload = WORKLOADS[name]
    base = work_dir(name)
    walls = {s: [] for s in workload.scenarios}
    scaled = {s: [] for s in workload.scenarios}
    setups = []
    cpus = sorted(os.sched_getaffinity(0))   # main() pinned the run to these

    def timed(mode: str, scenario: str, config: Path) -> dict:
        """spawn(), with the CPU times scaled by the speed probe run beside it."""
        with speed.SpeedProbe(cpus) as probe:
            r = spawn(mode, scenario, config)
        r["probe_s"] = probe.seconds()
        r["scaled_cpu"] = speed.scale(r["cpu"], r["probe_s"])
        if r["setup_cpu"] is not None:
            setups.append(speed.scale(r["setup_cpu"], r["probe_s"]))
        return r

    passes = []
    start = time.monotonic()
    # Scenarios run round-robin; after the first full pass a scenario runs
    # again only if its last time still fits in ``seconds``.
    while True:
        out_dir = base / f"pass{len(passes)}"
        p = {"dir": out_dir, "runs": {}}
        config = write_config(workload, seed, out_dir)
        for s in workload.scenarios:
            if passes and time.monotonic() - start + walls[s][-1] > seconds:
                break
            r = p["runs"][s] = timed("run", s, config)
            walls[s].append(r["wall"])
            scaled[s].append(r["scaled_cpu"])
        if not p["runs"]:
            break
        passes.append(p)
        if len(p["runs"]) < len(workload.scenarios):
            break
    runs = [r for p in passes for r in p["runs"].values()]
    probe_config = write_config(workload, seed, base / "setup")
    probes_run = [timed("setup", workload.scenarios[i % len(workload.scenarios)], probe_config)
                  for i in range(SETUP_PROBES)]
    metrics = {
        "cpu_s": sum(statistics.median(c) for c in scaled.values()),
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
    }
    context = {"scenario_wall_s": walls,
               "scenario_cpu_s": {s: [r["runs"][s]["cpu"] for r in passes if s in r["runs"]]
                                  for s in workload.scenarios},
               "probe_s": [r["probe_s"] for r in runs + probes_run], "cpus": cpus,
               "setup_samples": len(setups),
               "setup_probe_failures": sum(1 for r in probes_run if r["setup"] is None)}
    return metrics, {"passes_run": passes, **context}


def trace(name: str, seed: int) -> tuple[dict, dict]:
    """Plain pass plus traced pass: per-layer metrics and the run's context."""
    workload = WORKLOADS[name]
    base = work_dir(name)
    plain = run_pass(workload, seed, base / "plain", "run")
    traced = run_pass(workload, seed, base / "traced", "trace")
    reports = [r["report"] for r in traced["runs"].values()]
    table = {}
    for report in reports:
        for key, value in report.get("table", {}).items():
            table[key] = table.get(key, 0.0) + value
    replay = {k: sum(r.get("replay", {}).get(k, 0) for r in reports)
              for k in ("calls", "one_worker_s", "many_workers_s", "mismatched_points")}
    traced_wall = traced["wall"] - replay["one_worker_s"]
    metrics = probes.layer_metrics(table)
    metrics.update({
        "mc_trials_per_s": metrics["montecarlo.trials"] / plain["wall"],
        "montecarlo.worker_scaling": (replay["one_worker_s"] / replay["many_workers_s"]
                                      if replay["many_workers_s"] else 0.0),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain["wall"],
        "trace.overhead_frac": traced_wall / plain["wall"] - 1.0,
    })
    context = {"plain_wall_s": plain["wall"], "traced_wall_s": traced_wall, "replay": replay}
    return metrics, {"passes_run": [plain, traced], **context}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mmwcov" / "__init__.py").is_file():
        print(f"error: no mmwcov sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = check.load_reference()
    workload = WORKLOADS[args.workload]
    # Scenario processes inherit this affinity: one CPU per worker, so that
    # the speed probe times the CPUs the program runs on.
    cpus_usable = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:workload.workers])
    base = work_dir(args.workload)
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    # Warm-up: the first import in a fresh checkout compiles bytecode.
    warm = spawn("setup", workload.scenarios[0], write_config(workload, args.seed, base / "warmup"))
    if warm["setup"] is None:
        print(f"error: the program does not start:\n{warm['stderr'].read_text()}", file=sys.stderr)
        return 2
    if warm["report"]["package_dir"] != str((SRC / "mmwcov").resolve()):
        print(f"error: mmwcov was imported from {warm['report']['package_dir']}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.trace:
        values, context = trace(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        values, context = measure(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]

    state = _load_state()
    hashes = {**state.get("mc_sha256", {}), **reference["mc_sha256"]}
    attempted = failed = 0
    for p in context.pop("passes_run"):
        a, f, problems = check_pass(workload, args.seed, p, reference, hashes)
        attempted, failed = attempted + a, failed + f
        for msg in problems:
            print(f"check: {msg}", file=sys.stderr)
    mismatched = context.get("replay", {}).get("mismatched_points", 0)
    if mismatched:
        print(f"check: {mismatched} points differ when replayed at one worker", file=sys.stderr)
        attempted, failed = attempted + mismatched, failed + mismatched
    failed += context.get("setup_probe_failures", 0)
    attempted += context.get("setup_probe_failures", 0)
    state["mc_sha256"] = hashes
    if args.trace:
        state.setdefault("trace_overhead", {})[args.workload] = {
            "seed": args.seed, "overhead_s": values["trace.overhead_s"],
            "overhead_frac": values["trace.overhead_frac"]}
    _save_state(state)

    versions = warm["report"]["versions"]
    context.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "trials": workload.trials, "workers": workload.workers,
        "nproc": os.cpu_count(), "cpus_usable": cpus_usable,
        "cpu_model": _cpu_model(), **versions,
        "tracing_overhead": state.get("trace_overhead", {}).get(args.workload),
    })
    print(json.dumps({"context": context}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
