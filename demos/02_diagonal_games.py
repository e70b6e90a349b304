"""Diagonal games have a closed form.

With a positive-definite diagonal matrix the value is the harmonic-sum
reciprocal 1/sum(1/d_i) and the optimal strategy equalizes every column at
exactly that value.  Once signs mix (or a zero appears) the value collapses
to 0 and optimal play avoids the negative entries entirely.
"""

import numpy as np

from zerosum import GameMatrix, check_diagonal, solve_game

for d in ([1.0, 2.0, 3.0], [-1.0, -2.0]):
    d = np.array(d)
    sol = solve_game(GameMatrix(np.diag(d)))
    v_pred = 1.0 / np.sum(1.0 / d)
    print(f"diag({d}): solved value {sol.value:.6f}, formula {v_pred:.6f}")
    print("  strategy:", sol.row_strategy.weights, "formula:", v_pred / d)

# Mixed signs: the row player simply never plays the losing diagonal entries.
for d in ([-1.0, 2.0], [0.0, 5.0], [-3.0, 0.5, 4.0]):
    d = np.array(d)
    sol = solve_game(GameMatrix(np.diag(d)))
    neg_weight = sol.row_strategy.weights[d < 0].sum()
    print(f"diag({d}): value {sol.value:+.2e}, weight on negatives {neg_weight:.2e}")

# The claim checker packages both cases into a single verdict.
for d in ([1.0, 2.0, 3.0], [-1.0, 2.0], [4.0, -4.0, 0.0]):
    rep = check_diagonal(GameMatrix(np.diag(d)))
    print(f"check_diagonal({d}): {rep.verdict.value}")
