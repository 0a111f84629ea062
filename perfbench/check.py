"""Output checks against the stored reference (reference.json).

Every curve point counts as one attempted operation; it fails when it is
missing, unexpected, or outside its tolerance:

* Monte Carlo points lie within ``max(0.015, 3*stderr)`` of the analytic
  reference value of the same curve point (the release tolerance of
  the cross-engine acceptance test);
* a Monte Carlo CSV hashes the same for one seed and worker count wherever
  it was produced: the stored hash, earlier passes and earlier runs in this
  checkout.  On a mismatch every point of the file fails;
* analytic and dominant points lie within 1e-6 of the reference;
* each ``discrepancies.json`` entry keeps its id and implemented form.

``make_reference`` (run as a script) rebuilds reference.json from one run
of every workload at the default seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
MC_ABS_TOL = 0.015
MC_SIGMAS = 3.0
VALUE_TOL = 1e-6


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def read_points(path: Path) -> dict:
    """``{(curve key, x): (value, stderr)}`` of an engine CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {(row["policy"], float(row["x"])): (float(row["value"]), float(row["stderr"]))
                for row in csv.DictReader(fh)}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_curves(path: Path, engine: str, expected: list, hash_key: str | None = None,
                 hashes: dict | None = None) -> tuple[int, int, list]:
    """Check one engine CSV; returns (attempted, failed, problems).

    ``expected`` holds ``[key, x, value]`` reference points.  For Monte
    Carlo output ``hashes`` maps ``hash_key`` to the known SHA-256; an
    unknown key is recorded there.
    """
    ref = {(key, float(x)): value for key, x, value in expected}
    if not path.is_file():
        return len(ref), len(ref), [f"{path.name}: missing"]
    got = read_points(path)
    problems = []
    failed = set()
    for point, value in ref.items():
        if point not in got:
            failed.add(point)
            problems.append(f"{path.name}: {point} missing")
            continue
        v, stderr = got[point]
        tol = max(MC_ABS_TOL, MC_SIGMAS * stderr) if engine == "mc" else VALUE_TOL
        if not abs(v - value) <= tol:
            failed.add(point)
            problems.append(f"{path.name}: {point} = {v!r}, reference {value!r}, tolerance {tol:.3g}")
    extra = set(got) - set(ref)
    failed |= extra
    problems += [f"{path.name}: unexpected point {point}" for point in sorted(extra)]
    if engine == "mc" and hashes is not None:
        digest = sha256(path)
        known = hashes.setdefault(hash_key, digest)
        if digest != known:
            failed |= set(got) | set(ref)
            problems.append(f"{path.name}: SHA-256 {digest} differs from {known} ({hash_key})")
    return len(ref) + len(extra), len(failed), problems


def check_discrepancies(path: Path, expected: list) -> tuple[int, int, list]:
    """Each reference ``[id, implemented]`` pair must appear in the report."""
    if not path.is_file():
        return len(expected), len(expected), [f"{path.name}: missing"]
    entries = {(e.get("id"), e.get("implemented"))
               for e in json.loads(path.read_text(encoding="utf-8"))}
    missing = [pair for pair in expected if tuple(pair) not in entries]
    return (len(expected), len(missing),
            [f"{path.name}: entry {pair[0]!r} lost its id or implemented form" for pair in missing])


def make_reference(out_dirs: dict, seed: int, workers: int) -> dict:
    """Reference from one pass per workload: ``out_dirs`` maps each of
    ``"analytic"``, ``"dominant"`` and ``"mc"`` to its output directory."""

    def points(path):
        return [[key, x, v] for (key, x), (v, _) in sorted(read_points(path).items())]

    reports = json.loads((out_dirs["dominant"] / "discrepancies.json").read_text(encoding="utf-8"))
    return {
        "values": {
            "fig6": points(out_dirs["analytic"] / "fig6_analytic.csv"),
            "fig7": points(out_dirs["analytic"] / "fig7_analytic.csv"),
            "fig8": points(out_dirs["dominant"] / "fig8_dominant.csv"),
        },
        "discrepancies": [[e["id"], e["implemented"]] for e in reports],
        "mc_sha256": {f"seed={seed} workers={workers} {s}": sha256(out_dirs["mc"] / f"{s}_mc.csv")
                      for s in ("fig6", "fig7")},
    }


if __name__ == "__main__":
    import run

    seed = run.DEFAULT_SEED
    dirs = {}
    for name, workload in run.WORKLOADS.items():
        dirs[workload.engine] = run.work_dir(name) / "reference"
        run.run_pass(workload, seed, dirs[workload.engine], "run")
    reference = make_reference(dirs, seed, run.WORKLOADS["mc_sweep"].workers)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}", file=sys.stderr)
