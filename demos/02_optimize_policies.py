"""Search the policy space with NSGA-II.

Evolves a population of seven-lever policies against the Juneau dynamics,
then inspects the three corners of the resulting front: the
revenue-maximal, environment-maximal, and satisfaction-maximal solutions.
Each generation is simulated in one ``simulate_batch`` call, and the whole
run is reproducible from the seed.
"""

import numpy as np

import touropt as tp

preset = tp.get_preset("juneau")
exog = tp.synth_dataset(preset, seed=0)
init = tp.initial_state(preset, exog, seed=0)
coeffs = preset.coefficients


def problem(genomes):
    """Objectives of a whole generation: (N, 7) policies -> (N, 3)."""
    return tp.simulate_batch(tp.PolicyVector(), exog, coeffs, init,
                             dict(zip(tp.POLICY_FIELDS, genomes.T)))


config = tp.EAConfig(population_size=100, generations=40, seed=7)
result = tp.evolve(problem, preset.bounds.lows(), preset.bounds.highs(), config)

objs = result.front.objective_array()
print(f"front size {len(objs)} after {result.generations_run} generations")
hv = result.hypervolume_log
print(f"hypervolume grew {hv[0]:.3e} -> {hv[-1]:.3e}\n")

labels = ["max revenue", "max environment", "max satisfaction"]
for k, label in enumerate(labels):
    ind = result.front.individuals[int(np.argmax(objs[:, k]))]
    p = tp.PolicyVector.from_array(ind.genome)
    f1, f2, f3 = ind.objectives
    print(f"--- {label}: f1=${f1:.3e}, E_T={f2:.3f}, S_T={f3:.3f}")
    print(f"    tax={p.tax_rate:.2f}  fee=${p.carbon_fee:.0f}  "
          f"env_share={p.env_ratio:.2f}  glacier_share={p.glacier_ratio:.2f}")
    print(f"    capacity={p.capacity_limit:.2e}  ships={p.ship_limit:.0f}  "
          f"dev={p.dev_incentive:.2f}")

print("\nRevenue-led corners push capacity and levies; environment-led")
print("corners route a large budget share into protection. All corners are")
print("mutually non-dominated: improving one objective costs another.")
