"""In-memory span tracer for the zerosum benchmark.

The tracer wraps public functions of `zerosum` at the module attribute where
the caller looks them up (every zerosum module imports names directly, so
`zerosum.solver.solve_lp` and `zerosum.spectral.solve_lp` are wrapped
separately).  Each call records one span: name, start, end, parent span and
the trial id shared by all spans of one trial.  Spans stay in memory until
`write_jsonl`.  Nothing in `zerosum` itself is changed on disk.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# (span name, dotted owner inside the zerosum package, attribute).  The owner
# is where the *caller* looks the name up, not where it is defined.
TARGETS = (
    ("claims", "claims", "run_checker"),  # looked up there by bench/run.py
    ("cli.generate_ensemble", "cli", "generate_ensemble"),
    ("solver.solve_game", "claims", "solve_game"),
    ("solver.extrema", "claims", "row_optima_column_extrema"),
    ("spectral.perron", "claims", "perron"),
    ("spectral.gordan", "claims", "gordan"),
    ("spectral.stochastic_eigenvector", "claims", "stochastic_eigenvector"),
    ("lp", "solver", "solve_lp"),
    ("lp", "spectral", "solve_lp"),
    ("core.digest", "core.GameMatrix", "digest"),
    ("core.canonical_json", "core", "canonical_json"),
)

# Span fields, in tuple order.
NAME, START, END, PARENT, TRIAL, NOTE = range(6)


def _note(name: str, result):
    """Per-call detail kept on the span: LP status, perron iterations.

    Read with getattr so that a result type without the field records None
    instead of failing the traced call.
    """
    if name == "lp":
        return getattr(getattr(result, "status", None), "value", None)
    if name == "spectral.perron":
        return getattr(result, "iterations", None)
    return None


class Tracer:
    """Records spans while installed; `uninstall` restores every original."""

    def __init__(self, zerosum) -> None:
        self.zerosum = zerosum
        self.spans: list = []
        self.trial = None
        self.pivots = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _owner(self, dotted: str):
        obj = self.zerosum
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            note = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                note = _note(name, result)
                return result
            except BaseException as exc:
                note = "error:" + type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.trial, note)

        return traced

    def _count_pivot(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.pivots += 1
            return fn(*args, **kwargs)

        return counted

    @property
    def counts_pivots(self) -> bool:
        """Whether the pivot helper exists to be counted (see `install`)."""
        return hasattr(self.zerosum.lp, "_pivot")

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for name, dotted, attr in TARGETS:
            owner = self._owner(dotted)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{dotted}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        # No public source reports pivots yet: `_run_simplex` looks the
        # module-level helper up at call time, so counting it counts pivots.
        if self.counts_pivots:
            lp = self.zerosum.lp
            self._saved.append((lp, "_pivot", lp._pivot))
            lp._pivot = self._count_pivot(lp._pivot)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "trial", "note"), span
                ))) + "\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded and nested, so children of one span never
    overlap and their durations simply add.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
