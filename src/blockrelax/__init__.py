"""Block-structured relaxation of nonconvex sparse recovery.

Planted instances couple a block sensing matrix with an ensemble of candidate
columns; selecting one column per block is relaxed to weighted l1 minimization
whose optimum, when a dual certificate holds, is provably the planted choice.
The package bundles the generator, the exact active-set solver with its certificate,
exhaustive oracles, Monte Carlo concentration checks with their closed forms,
the success probabilities of relaxing against repeated guessing, and the
hardness reductions that motivate relaxing in the first place.
"""
