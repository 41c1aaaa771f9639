"""Walk through the core pipeline on the 2x2 coordination game.

Builds the chain of learning states for all three algorithms from the same
slightly-asymmetric initial estimates, prints the absorbing components with
their reach probabilities, and writes a Graphviz rendering of the FP chain.

Run: python demos/01_coordination_chain.py
"""

from smcl import (
    ExploreConfig,
    SIMPLE_COORDINATION_WEIGHTS,
    analyze,
    explore,
    initial_state,
    simple_coordination,
)
from smcl.dot import export_dot

game = simple_coordination()
print("rewards: (1,1) on the diagonal, (0,0) off it")
print("initial estimates:", SIMPLE_COORDINATION_WEIGHTS)
print()

for algo, kwargs in [
    ("fp", {}),
    ("gfp", {"alpha": 0.2}),
    ("afffp", {"lambda0": 0.8}),
]:
    learner = initial_state(algo, game, SIMPLE_COORDINATION_WEIGHTS, **kwargs)
    chain = explore(game, learner, ExploreConfig(max_depth=100, tau0=0.01))
    report = analyze(game, chain)
    print(f"{algo}: {chain.num_states} states, "
          f"{len(report.bsccs)} absorbing components")
    for b in report.bsccs:
        actions = " ".join(str(a) for a in sorted(b.actions))
        print(f"  p={b.reach_probability:.4f}  "
              f"{b.classification.value:<18} {actions}")
    print(f"  convergence probability: "
          f"{report.convergence_probability:.4f}")
    print()

    if algo == "fp":
        members = set().union(*(b.scc.members for b in report.bsccs))
        export_dot(chain, members, "coordination_fp.dot")
        print("  (FP chain written to coordination_fp.dot; render with"
              " `dot -Tpdf`)")
        print()

print("All three learners risk the zero-reward (0,1)/(1,0) loop: with these")
print("estimates the probability of coordinating is only ~0.18.")
