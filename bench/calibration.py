"""Machine-speed calibration for the zerosum benchmark.

The benchmark shares its machine with other processes, which slow whole
stretches of a run by up to 2x for tens of seconds: CPU time tracks wall
time, so the loss is in the hardware the processes share, not in
scheduling.  A fixed loop, run in short blocks between the trials, measures
that slowdown, and the benchmark divides it out: a timing is reported as
`wall time * REFERENCE_S / (median loop time of the nearby blocks)`, the
wall time the same work takes when the loop runs at its reference speed.

The loop imitates the program's hot path (interpreted Python and dense
tableau pivots in numpy) but never calls zerosum.  It is frozen: editing
it, its matrix, the flush, REFERENCE_S or the block layout rescales every
timing the benchmark reports.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Time of one `calibration_loop` call after a cache flush at the reference
# speed.  A fixed scale: such a call takes about this long on the 2-vCPU
# Intel Xeon guest the benchmark was written on when it is otherwise idle,
# so reported figures read close to its wall times.
REFERENCE_S = 8.0e-5
# Loops per block that are run but not kept, then loops whose times are kept.
BLOCK_WARMUP = 3
BLOCK_KEPT = 5

# Read before every loop.  At 4 MiB it is twice that guest's 2 MiB L2 cache,
# so every loop starts with its own data out of L1 and L2.
_FLUSH = np.ones(1 << 19)
_TABLEAU = np.random.default_rng(20201201).uniform(0.1, 1.0, (32, 96))


def calibration_loop() -> float:
    """A Python integer loop, then two Gauss-Jordan pivots on a fixed 32x96
    tableau (the size of a 30x30 game's value LP); returns seconds."""
    start = perf_counter()
    acc = 0
    for i in range(1000):
        acc += i * i
    T = _TABLEAU.copy()
    for k in range(2):
        col = int(np.argmax(T[k, :-1]))
        T[k] /= T[k, col]
        factors = T[:, col].copy()
        factors[k] = 0.0
        T -= np.outer(factors, T[k])
        rhs = T[:-1, -1]
        rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0
        np.nonzero(T[-1, :-1] > 1e-11)
    return perf_counter() - start


def probe_block() -> list[float]:
    """Run one block of calibration loops, each after a cache flush; return
    the times of the kept ones.

    The flush makes each loop fetch its data from L3 and memory, which other
    tenants of the machine share, so the loop slows with their load as the
    trials do: in six interleaved pairs of 30 s `gordan_skew` runs, unflushed
    loops left twice the run-to-run spread of flushed ones.

    The first BLOCK_WARMUP loops of a block are not kept.  Right after a
    trial, even a flushed loop ran 11-28 % slower than one after another
    loop, the second 2-6 % and the third 1-3 % slower: the trial leaves
    state behind that the flush does not reset.  Rescaling by those loops
    would divide part of the program's own cost out of its timings.  The
    kept loops of a block right after a trial read within 1 % of those of a
    block right after another block.
    """
    times = []
    for _ in range(BLOCK_WARMUP + BLOCK_KEPT):
        _FLUSH.sum()
        times.append(calibration_loop())
    return times[BLOCK_WARMUP:]


def speed_factor(probes: list[float]) -> float:
    """Slowdown against the reference speed shown by a set of loop times."""
    return statistics.median(probes) / REFERENCE_S
