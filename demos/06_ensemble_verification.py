"""Audit every claim over seeded random ensembles and tally the verdicts.

The same run is available from the shell, e.g.:

    zerosum verify --claim SkewZeroCor3 --ensemble Skew --size 5 \
        --trials 100 --seed 7

Ensembles are reproducible: a PCG64 stream seeded once, trials drawn
sequentially, so any verdict below can be replayed bit-for-bit.
"""

from collections import Counter

from zerosum import (
    ClaimId,
    EnsembleSpec,
    Family,
    generate_ensemble,
    run_checker,
)

# Only the eigenvalue claims take eigenvalues; the others refuse them.
PLAN = [
    (ClaimId.DIAGONAL_THEOREM1, Family.DIAGONAL, (-5.0, 5.0), None),
    (ClaimId.SKEW_ZERO_COR3, Family.SKEW, (-5.0, 5.0), None),
    (ClaimId.SHARED_OPTIMA_COR4, Family.SKEW, (-5.0, 5.0), None),
    (ClaimId.NEG_TRANSPOSE_THM2, Family.GENERAL, (-5.0, 5.0), None),
    (ClaimId.EIGENSPACE_LEMMA5, Family.SKEW, (-5.0, 5.0), [0.0]),
    (ClaimId.GORDAN_THEOREM3, Family.SKEW, (-5.0, 5.0), None),
    (ClaimId.POSITIVE_DOMINATED_THM4, Family.POSITIVE, (0.1, 5.0), None),
]

for claim, family, entry_range, lambdas in PLAN:
    spec = EnsembleSpec(family, size=4, trials=50, seed=2024, entry_range=entry_range)
    tally = Counter()
    for A in generate_ensemble(spec):
        for rep in run_checker(claim, A, lambdas=lambdas):
            tally[rep.verdict.value] += 1
    print(f"{claim.value:28s} over {family.value:8s}: {dict(tally)}")

# Expected highlights: the skew and diagonal claims hold everywhere; the
# Gordan-based equivalence is violated as stated on every skew instance
# (its reversed polarity is what actually holds); the positive-matrix
# dominance claim splits between Holds, Violated, and NotApplicable
# depending on where the value lands relative to the Perron bracket.
