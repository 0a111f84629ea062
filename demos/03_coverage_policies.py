"""Coverage probability under the three association policies, both engines.

Max-power association (P1) accounts for beam misalignment; nearest-transmitter
association (P3) is the optimistic baseline; pure angle-based association (P2)
ignores path loss and pays dearly for it.
"""

import numpy as np

from mmwcov import NetworkParams, SimPlan, run_coverages
from mmwcov.analytic import coverage_p1, coverage_p2, coverage_p3

params = NetworkParams()
gammas_db = np.arange(-10.0, 16.0, 5.0)
fns = {"P1": coverage_p1, "P2": coverage_p2, "P3": coverage_p3}

print(f"coverage vs SINR threshold at {params.antenna.n_beams} beams, "
      f"density {params.density} /m^2")
header = f"{'gamma dB':>9}"
for policy in fns:
    header += f" | {policy+' mc':>8} {policy+' exact':>9}"
print(header)

# the three curves share one seed and field law, so one call draws each chunk once
plans = [SimPlan(params=params, policy=p, thresholds_db=tuple(gammas_db),
                 n_trials=50_000, master_seed=11) for p in fns]
curves = dict(zip(fns, run_coverages(plans, n_workers=4)))
for i, g_db in enumerate(gammas_db):
    line = f"{g_db:9.1f}"
    for policy, fn in fns.items():
        ana = fn(10.0 ** (g_db / 10.0), params)
        line += f" | {curves[policy].p_cov[i]:8.4f} {ana:9.4f}"
    print(line)

print("\nreading: P3 >= P1 >= P2 pointwise; the optimistic baseline "
      "overestimates coverage, the pure angle rule underestimates it badly.")
