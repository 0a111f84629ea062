"""Received-power ccdf: beam-managed maximum power vs nearest-transmitter power.

Reproduces the received-power comparison: the nearest-transmitter boresight
model overestimates what a beam-managed receiver actually gets, most visibly
at low power levels.  Monte Carlo curves carry standard errors; the quadrature
engine is exact up to tolerance.
"""

import numpy as np

from dataclasses import replace

from mmwcov import NetworkParams, SimPlan, run_power_ccdfs
from mmwcov.analytic import nearest_power_ccdf, serving_power_ccdf
from mmwcov.montecarlo import default_power_levels

params = NetworkParams()
levels = default_power_levels(params, n=13)
levels_db = 10.0 * np.log10(levels)

plan = SimPlan(params=params, policy="P1", thresholds_db=(0.0,),
               n_trials=100_000, master_seed=7)
# both policies on one random draw per chunk
mc_p1, mc_p3 = run_power_ccdfs([plan, replace(plan, policy="P3")], levels=levels, n_workers=4)
# both laws are given a nonempty disk, as every simulated trial is
an_p1 = serving_power_ccdf(levels, params)
an_p3 = nearest_power_ccdf(levels, params)

print("normalized power ccdf (beam-managed max vs nearest transmitter)")
print(f"{'level dB':>9} | {'mc max':>7} {'exact max':>9} | {'mc nearest':>10} {'exact nearest':>13}")
for i, ldb in enumerate(levels_db):
    print(f"{ldb:9.1f} | {mc_p1.ccdf[i]:7.4f} {an_p1[i]:9.4f} | "
          f"{mc_p3.ccdf[i]:10.4f} {an_p3[i]:13.4f}")
print("\nnote the nearest-transmitter curve dominating at the low end:")
low = levels_db < levels_db[4]
print(f"  min(nearest - max) over the low bins: {np.min(an_p3[low] - an_p1[low]):+.4f}")
