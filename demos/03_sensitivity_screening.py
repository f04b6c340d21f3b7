"""Screen and decompose parameter influence.

First a Morris screening over the twelve-parameter default space (seven
policy levers plus the main uncertain coefficients) flags what moves each
objective at all; then a Sobol decomposition around the working policy,
with demand held above capacity, quantifies how dominant the capacity
limit is for cumulative revenue.
"""

import touropt as tp
from touropt.gsa import analyze_model, full_space, uncertainty_space

preset = tp.get_preset("juneau")
exog = tp.synth_dataset(preset, seed=0)
init = tp.initial_state(preset, exog, seed=0)
policy = preset.reference_policy

print("=== Morris screening, 12 parameters, r=20 trajectories")
space = full_space(preset.bounds, preset.coefficients)
report = analyze_model(space, exog, preset.coefficients, policy, init,
                       method="morris", morris_r=20, seed=0)
for out in ("f1", "f2", "f3"):
    top = report.tables[out].ranked()[:4]
    names = ", ".join(f"{n} (mu*={m:.3g})" for n, m, _ in top)
    print(f"{out}: {names}")

print("\n=== Sobol around the working policy, demand capacity-bound, n=512")
stressed = exog.with_scaled("V_base", 8.0)
u_space = uncertainty_space(policy, preset.bounds)  # +-20% around the policy
report = analyze_model(u_space, stressed, preset.coefficients, policy, init,
                       method="sobol", sobol_n=512, seed=11)
print("parameter           S1      ST")
for name, s1, st, _ in report.tables["f1"].ranked():
    print(f"{name:18s} {s1:6.3f}  {st:6.3f}")

print("\nWith arrivals pinned at capacity, the capacity limit owns the")
print("largest share of revenue variance; the carbon fee is the strongest")
print("remaining lever because it acts directly on per-visitor revenue.")
