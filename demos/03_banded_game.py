"""The banded 20x20 coordination game at depth 3000.

Both players share one reward table with values {0, 1, zeta, beta}; the
sub-diagonal zeta band holds the Pareto-efficient equilibria.  Under a flat
first step (tau0 = 1) all 400 joint actions fire with positive probability,
giving 400 branches whose best-response chains mostly drain into the zeta
equilibria.  Some initialisations pass through temporary two-action cycles
that need a few hundred iterations to resolve, which is why the depth
bound is 3000.

Takes a few seconds. Run: python demos/03_banded_game.py
"""

from collections import Counter

from smcl import (
    ComplexGameParams,
    ExploreConfig,
    analyze,
    complex_coordination,
    explore,
    initial_state,
    random_initial_weights,
)

params = ComplexGameParams(n=5, delta=0.03)
game = complex_coordination(params)
print(f"zeta = {params.zeta:.5f}, beta = {params.beta:.5f}")

weights = random_initial_weights(game, seed=[5, 0])
learner = initial_state("fp", game, weights)
chain = explore(game, learner, ExploreConfig(max_depth=3000, tau0=1.0))
report = analyze(game, chain)

deepest = max(s.depth for s in chain.states if s.id != chain.sink_id)
print(f"states: {chain.num_states}, deepest state: {deepest}, "
      f"truncated: {chain.truncated}")

by_class = Counter()
mass = Counter()
for b in report.bsccs:
    by_class[b.classification.value] += 1
    mass[b.classification.value] += b.reach_probability
for label in sorted(by_class):
    print(f"  {label:<18} components: {by_class[label]:>3}  "
          f"total probability: {mass[label]:.4f}")
print(f"convergence probability: {report.convergence_probability:.4f}")
print()
print("Fictitious play almost surely finds a Pareto-efficient equilibrium")
print("here, but only the chain shows how the residual probability is")
print("spent on lingering two-action cycles.")
