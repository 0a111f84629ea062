"""Sample Poisson fields and check the angular-distance laws by eye.

Draws a batch of fields with the Monte Carlo engine, takes the two smallest
absolute angular offsets from the x-axis in each (statistic ``varphi12``,
over fields with at least two transmitters), histograms the smallest one,
and prints it next to the closed-form density.
"""

import numpy as np

from mmwcov import NetworkParams, SimPlan
from mmwcov.geometry import abs_angular_pdf_nth, joint_abs_angular_pdf
from mmwcov.montecarlo import sample_statistic

params = NetworkParams()
plan = SimPlan(params=params, policy="P1", thresholds_db=(0.0,), n_trials=200_000,
               master_seed=42)
pairs, _ = sample_statistic(plan, "varphi12")
print(f"{pairs.shape[0]} of {plan.n_trials} fields hold two or more transmitters inside "
      f"{params.r_los:.0f} m (mean count {params.mean_count:.1f})")
print(f"first such field: two smallest |angles| {pairs[0, 0]:.3f} and {pairs[0, 1]:.3f} rad\n")

# empirical vs analytic density of the smallest absolute angular offset;
# histogram over the full support so the density normalization is comparable
edges = np.linspace(0.0, np.pi, 64)
hist, _ = np.histogram(pairs[:, 0], bins=edges, density=True)
mids = 0.5 * (edges[:-1] + edges[1:])
print("smallest |angle| law:   bin-mid   empirical   analytic")
for m, h in zip(mids[:8], hist[:8]):
    print(f"                        {m:7.3f}   {h:9.3f}   {abs_angular_pdf_nth(1, m, params.r_los, params.density):8.3f}")

print("\njoint density of the two smallest |angles| at (0.02, 0.05):",
      f"{joint_abs_angular_pdf(0.02, 0.05, params.r_los, params.density):.2f} per rad^2")
