"""Skew-symmetric games, their null spaces, and the theorem of alternatives.

A skew game (A^T = -A) always has value 0 and the two players can share one
optimal strategy.  Whether an optimal strategy lives inside the null space
is governed by Gordan's alternative: either A x = 0 has a nonnegative
nonzero solution, or A^T y > 0 does - never both.
"""

import numpy as np

from zerosum import (
    GameMatrix,
    check_gordan_theorem3,
    gordan,
    null_space,
    solve_game,
    stochastic_eigenvector,
)

rng = np.random.default_rng(7)

for n in (3, 4, 5):
    upper = np.triu(rng.uniform(-2, 2, (n, n)), k=1)
    A = GameMatrix(upper - upper.T)
    sol = solve_game(A)
    kernel = null_space(A)
    verdict = gordan(A)
    print(f"skew {n}x{n}: value {sol.value:+.1e}, kernel dim {kernel.dimension}, "
          f"gordan branch {verdict.branch.value}")
    # odd n forces a nonzero kernel; whether it holds a stochastic vector is
    # exactly the NonnegativeKernel branch
    witness = stochastic_eigenvector(A, 0.0)
    print("  stochastic kernel vector:", None if witness is None else witness.weights)

# The claimed equivalence between kernel optima and A y > 0 solvability runs
# opposite to the alternative; the audit reports both polarities.
A = GameMatrix([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
rep = check_gordan_theorem3(A)
print("rock-paper-scissors:", rep.computed["gordan_branch"],
      "| kernel optimum exists:", rep.computed["kernel_optimum_exists"])
print("  claim as stated:", rep.verdict.value,
      "| polarity reversed:", rep.computed["polarity_reversed"])
