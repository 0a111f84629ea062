"""Single-dominant-interferer bounds, and which definition of "dominant" works.

Keeping only the strongest interferer upper-bounds coverage.  Defining the
dominant interferer by angular distance tracks the true max-power coverage
far better than defining it by Euclidean distance.  Also prints the formula
arbitration report (series of closed forms corrected against Monte Carlo).
"""

import json

import numpy as np

from mmwcov import NetworkParams
from mmwcov.analytic import coverage_p1
from mmwcov.dominant import build_discrepancy_report, coverage_dom_p2, coverage_dom_p3

params = NetworkParams()
gammas_db = np.arange(-10.0, 16.0, 5.0)
gammas = 10.0 ** (gammas_db / 10.0)
curves = (coverage_dom_p2(gammas, params), coverage_dom_p3(gammas, params),
          coverage_p1(gammas, params))

print("dominant-interferer SIR coverage vs the full max-power coverage")
print(f"{'gamma dB':>9} | {'angle-dom':>9} {'euclid-dom':>10} | {'max-power':>9}")
for g_db, angle, euclid, full in zip(gammas_db, *curves):
    print(f"{g_db:9.1f} | {angle:9.4f} {euclid:10.4f} | {full:9.4f}")

print("\nformula arbitrations (implemented vs rejected closed forms):")
report = build_discrepancy_report(params, seed=99, n_trials=50_000)
for entry in report:
    print(f"  - {entry['id']}: {entry['note']}")
print("\nfull evidence as JSON:")
print(json.dumps(report[1], indent=2)[:600], "...")
