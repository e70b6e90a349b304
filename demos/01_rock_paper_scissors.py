"""Solve Rock-Paper-Scissors and inspect the equilibrium certificates.

Rows/columns are rock, paper, scissors; +1 is a win for the row player.
"""

import numpy as np

from zerosum import GameMatrix, oracle_solve, payoff, solve_game

A = GameMatrix([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])

sol = solve_game(A)
print("game value:", sol.value)
print("row strategy:", sol.row_strategy.weights)
print("col strategy:", sol.col_strategy.weights)
print("duality gap:", sol.duality_gap)

# The pair is an equilibrium: neither player has an improving pure deviation.
floor = (sol.row_strategy.weights @ A.values).min()
ceiling = (A.values @ sol.col_strategy.weights).max()
print(f"row guarantee (floor) {floor:.2e} <= value <= ceiling {ceiling:.2e}")

# The support-enumeration oracle agrees and confirms the unique full-support
# optimum.  It decides in exact rational arithmetic and rounds once, so it
# prints the value as exactly 0.0 and each weight as the double nearest 1/3.
oracle = oracle_solve(A)
print("oracle supports:", oracle.row_support, oracle.col_support)
print("oracle value:", oracle.value)
assert oracle.value == 0.0 and oracle.row_strategy.weights.tolist() == [1 / 3] * 3

# Playing uniformly against any pure strategy scores zero, up to roundoff.
print("uniform vs uniform payoff:", payoff(A, sol.row_strategy, sol.col_strategy))
assert np.max(np.abs(sol.row_strategy.weights - 1 / 3)) < 1e-7
