#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for zerosum claim audits.

One *trial* is `run_checker(claim, A)` on one matrix of a seeded CLI
ensemble; one *pass* audits the whole ensemble and renders the payload with
`canonical_json` exactly as `zerosum verify` does.  Everything runs in this
one process against the sources in `src/` next to this directory.

Usage (from the repository root):

    python3 bench/run.py --workload posdom --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, default seeds
    python3 bench/run.py --record-reference      # rewrite bench/reference.json

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics plus the tracing
overhead.  Timings are rescaled to a fixed machine speed measured by
calibration blocks between the trials (see calibration.py); bench/METRICS.md
defines every metric and check.  Human-readable lines start with "#" or list one metric each; the
last line of standard output is the JSON result.  Any exception other than
the `RuntimeError` a trial may raise (the CLI's exit-3 class) is a benchmark
bug: it aborts the run without printing a result.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, so BLAS runs one thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import ctypes
import gc
import importlib
import json
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from calibration import probe_block, speed_factor
from tracing import END, NAME, NOTE, START, TRIAL, Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_build" / "zerosum-bench"

TRIALS = 400  # per ensemble: p95 has 20 trials beyond it and varies little by seed
WARMUP_TRIALS = 3
SETUP_REPEATS = 7
MIN_BATCHES = 2
GATE_TRIALS = 50  # reference trials re-checked by every run
CLI_TRIALS = 20  # below 44, the first failing trial at seed 7
GATE_TOL = 1e-8
PROBE_EVERY = 16  # trials between two calibration blocks
SETUP_PROBE_BLOCKS = 2  # calibration blocks on each side of a set-up
SELF_SUM_TOL = 0.03
# Quantities the mathematics makes unique.  Strategy vectors are left out: a
# different pivot path may legitimately pick another optimal vertex.
GATED_KEYS = (
    "value",
    "neg_transpose_value",
    "gordan_branch",
    "perron_root",
    "column_payoff_minima",
    "column_payoff_maxima",
)


@dataclass(frozen=True)
class Workload:
    claim: str
    family: str
    size: int
    default_seed: int


# Why each one is here is recorded in BENCHMARK.json and bench/METRICS.md.
WORKLOADS = {
    "posdom": Workload("PositiveDominatedThm4", "Positive", 10, 1),
    "negt_general": Workload("NegTransposeThm2", "General", 30, 7),
    "gordan_skew": Workload("GordanTheorem3", "Skew", 7, 1),
}

# Spans that run inside a trial's `claims` span; their self times must add
# up to `claims.ms`.
INSIDE_CLAIMS = (
    "claims",
    "solver.solve_game",
    "solver.extrema",
    "spectral.perron",
    "spectral.gordan",
    "spectral.stochastic_eigenvector",
    "lp",
    "core.digest",
)
# Counts that must repeat exactly across traced passes.
REPEATED_COUNTS = (
    "lp.calls",
    "lp.pivots",
    "lp.infeasible_ratio",
    "spectral.perron.iterations",
)


def pin_malloc_threshold() -> bool:
    """Fix glibc's mmap threshold at its initial 128 KiB.

    By default glibc raises the threshold after freeing a large mmapped
    block, so whether later large blocks come from mmap or the heap, and
    the peak RSS, depend on the exact order of sizes: two seeds of one
    workload differed by 8 %.  Setting it explicitly turns that adjustment
    off for this process only.  Returns False where there is no glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    M_MMAP_THRESHOLD = -3
    return mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (no sources, bad arguments)."""


# ---------------------------------------------------------------- program


@dataclass
class Program:
    """One fresh import of the zerosum package from `src/`."""

    zerosum: object
    cli: object
    claims: object
    core: object


def import_program() -> Program:
    for name in [m for m in sys.modules if m == "zerosum" or m.startswith("zerosum.")]:
        del sys.modules[name]
    if not (SRC / "zerosum").is_dir():
        raise BenchmarkError(f"no zerosum sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    zs = importlib.import_module("zerosum")
    if Path(zs.__file__).resolve().parent != (SRC / "zerosum").resolve():
        raise BenchmarkError(f"imported zerosum from {zs.__file__}, not {SRC}")
    return Program(
        zerosum=zs,
        cli=importlib.import_module("zerosum.cli"),
        claims=importlib.import_module("zerosum.claims"),
        core=importlib.import_module("zerosum.core"),
    )


def ensemble_spec(prog: Program, wl: Workload, seed: int, trials: int):
    cli = prog.cli
    return cli.EnsembleSpec(
        family=cli.Family(wl.family),
        size=wl.size,
        trials=trials,
        seed=seed,
        entry_range=cli.DEFAULT_RANGES[wl.family],
    )


def render(prog: Program, reports: list) -> str:
    """The payload `cli._cmd_verify` builds, rendered as `run_cli` does."""
    Verdict = prog.claims.Verdict
    counts = {v: 0 for v in Verdict}
    for rep in reports:
        counts[rep.verdict] += 1
    payload = {
        "reports": [rep.to_json_dict() for rep in reports],
        "summary": {
            "holds": counts[Verdict.HOLDS],
            "violated": counts[Verdict.VIOLATED],
            "not_applicable": counts[Verdict.NOT_APPLICABLE],
        },
    }
    return prog.core.canonical_json(payload)


# ---------------------------------------------------------------- passes


@dataclass
class Pass:
    latencies: list[float]  # per trial, wall seconds
    # Kept calibration loop times, seconds: one block before every
    # PROBE_EVERY-th trial and one after the last trial.
    blocks: list[list[float]]
    render_s: float
    outcomes: list  # per trial: list of reports, or the error text
    text: str
    tracer: Tracer | None = None

    @property
    def failures(self) -> list[tuple[int, str]]:
        return [(i, o) for i, o in enumerate(self.outcomes) if isinstance(o, str)]

    def release(self) -> None:
        """Drop the reports and rendering; keep timings and failures."""
        self.text = ""
        self.outcomes = [o if isinstance(o, str) else None for o in self.outcomes]

    @property
    def factors(self) -> list[float]:
        """Slowdown against the reference speed at each trial: the median
        loop time of the two calibration blocks on either side of it."""
        return [
            speed_factor(self.blocks[b] + self.blocks[b + 1])
            for b in (i // PROBE_EVERY for i in range(len(self.latencies)))
        ]

    @property
    def normalized(self) -> list[float]:
        """Trial latencies at the reference speed, seconds."""
        return [t / f for t, f in zip(self.latencies, self.factors)]

    @property
    def normalized_render_s(self) -> float:
        return self.render_s / speed_factor(self.blocks[-1])


def trial_latencies(passes: list[Pass]) -> list[float]:
    """Each trial's reference-speed latency: its median over the passes."""
    return [statistics.median(col) for col in zip(*(p.normalized for p in passes))]


def trials_per_s(passes: list[Pass]) -> float:
    """Trials per second of check loop + render, at the reference speed."""
    latencies = trial_latencies(passes)
    render_s = statistics.median(p.normalized_render_s for p in passes)
    return len(latencies) / (sum(latencies) + render_s)


def wall_trials_per_s(passes: list[Pass]) -> float:
    """Raw wall-clock trials per second of check loop + render, median pass."""
    return statistics.median(
        len(p.latencies) / (sum(p.latencies) + p.render_s) for p in passes
    )


def run_pass(prog: Program, claim, ensemble: list, tracer: Tracer | None = None) -> Pass:
    """Audit every matrix, then render; a RuntimeError fails only its trial.

    Calibration blocks run between trials, outside their timings.
    """
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        latencies, blocks, outcomes, reports = [], [], [], []
        for i, A in enumerate(ensemble):
            if i % PROBE_EVERY == 0:
                blocks.append(probe_block())
            if tracer is not None:
                tracer.trial = i
            t0 = perf_counter()
            try:
                out = prog.claims.run_checker(claim, A)
            except RuntimeError as exc:
                out = f"{type(exc).__name__}: {exc}"
            else:
                reports.extend(out)
            latencies.append(perf_counter() - t0)
            outcomes.append(out)
        blocks.append(probe_block())
        if tracer is not None:
            tracer.trial = None
        t0 = perf_counter()
        text = render(prog, reports)
        render_s = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(latencies, blocks, render_s, outcomes, text, tracer)


def calibration_probes() -> list[float]:
    """Kept loop times of SETUP_PROBE_BLOCKS calibration blocks."""
    return [t for _ in range(SETUP_PROBE_BLOCKS) for t in probe_block()]


def setup(wl: Workload, seed: int) -> tuple[float, Program, list, object]:
    """Import zerosum, generate the ensemble, run the warm-up trials.

    Returns the set-up time at the reference speed, measured by calibration
    blocks on both sides of it.
    """
    before = calibration_probes()
    start = perf_counter()
    prog = import_program()
    ensemble = prog.cli.generate_ensemble(ensemble_spec(prog, wl, seed, TRIALS))
    claim = prog.claims.ClaimId(wl.claim)
    for A in ensemble[:WARMUP_TRIALS]:
        try:
            prog.claims.run_checker(claim, A)
        except RuntimeError:
            pass
    wall = perf_counter() - start
    after = calibration_probes()
    return wall / speed_factor(before + after), prog, ensemble, claim


# ---------------------------------------------------------------- checks


def gated_quantities(outcome) -> list[dict] | str:
    if isinstance(outcome, str):
        return outcome
    rows = []
    for rep in outcome:
        d = rep.to_json_dict()
        row = {"verdict": d["verdict"]}
        row.update({k: d["computed"][k] for k in GATED_KEYS if k in d["computed"]})
        rows.append(row)
    return rows


def _same(ref, now) -> bool:
    if isinstance(ref, list):
        return isinstance(now, list) and len(ref) == len(now) and all(
            _same(r, n) for r, n in zip(ref, now)
        )
    if isinstance(ref, dict):
        return isinstance(now, dict) and ref.keys() == now.keys() and all(
            _same(ref[k], now[k]) for k in ref
        )
    if isinstance(ref, float):
        return isinstance(now, float) and abs(now - ref) <= GATE_TOL * max(1.0, abs(ref))
    return ref == now


def gate_pass(prog: Program, name: str) -> tuple[Pass, list[str], str]:
    """Re-run the reference trials and compare them with bench/reference.json.

    Returns the pass, the mismatches and a summary.  Reference failures are
    not compared; a trial that fails now but passed in the reference is a
    failed trial, not a mismatch.
    """
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
    wl = WORKLOADS[name]
    if (ref["claim"], ref["family"], ref["size"]) != (wl.claim, wl.family, wl.size):
        raise BenchmarkError(f"reference for {name} was recorded for another workload")
    ensemble = prog.cli.generate_ensemble(
        ensemble_spec(prog, wl, ref["seed"], len(ref["trials"]))
    )
    p = run_pass(prog, prog.claims.ClaimId(wl.claim), ensemble)
    mismatches, compared = [], 0
    for i, (want, outcome) in enumerate(zip(ref["trials"], p.outcomes)):
        got = gated_quantities(outcome)
        if isinstance(want, str) or isinstance(got, str):
            continue
        compared += 1
        if not _same(want, got):
            mismatches.append(f"trial {i}: reference {want} != now {got}")
    summary = (
        f"{len(p.outcomes)} trials at seed {ref['seed']}, {compared} compared, "
        f"{len(mismatches)} mismatches"
    )
    return p, mismatches, summary


def cli_equivalence(prog: Program, wl: Workload, seed: int, first: Pass) -> tuple[bool, str]:
    """`zerosum verify --trials k` must write exactly the bytes the benchmark
    renders for its first k trials (k stops short of the first failure)."""
    fails = [i for i, _ in first.failures]
    k = min([CLI_TRIALS] + fails)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"cli-{wl.claim}-{seed}.json"
    argv = [
        "verify", "--claim", wl.claim, "--ensemble", wl.family,
        "--size", str(wl.size), "--trials", str(max(k, 1)),
        "--seed", str(seed), "--output", str(out),
    ]
    try:
        code = prog.cli.run_cli(argv)
        if k == 0:
            return code == 3, "trial 0 fails, so the CLI must exit 3"
        reports = [rep for o in first.outcomes[:k] for rep in o]
        expected = render(prog, reports).encode("utf-8")
        violated = any(r.verdict is prog.claims.Verdict.VIOLATED for r in reports)
        same = out.read_bytes() == expected and code == (1 if violated else 0)
        return same, f"k={k}, {len(expected)} bytes, exit {code}"
    finally:
        out.unlink(missing_ok=True)


# ---------------------------------------------------------------- metrics


def layer_metrics(p: Pass) -> dict[str, float | None]:
    """Per-trial layer figures of one traced pass, times at reference speed."""
    tracer, n_trials = p.tracer, len(p.outcomes)
    spans = tracer.spans
    factors = p.factors
    total: dict[str, float] = {}
    selft: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        name = s[NAME]
        f = factors[-1] if s[TRIAL] is None else factors[s[TRIAL]]
        total[name] = total.get(name, 0.0) + (s[END] - s[START]) / f
        selft[name] = selft.get(name, 0.0) + own / f
    lp_notes = [s[NOTE] for s in spans if s[NAME] == "lp"]
    lp_calls = len(lp_notes)
    lp_ms = total.get("lp", 0.0) * 1e3

    def per_trial_ms(name, table=total):
        return table.get(name, 0.0) * 1e3 / n_trials

    claims_ms = per_trial_ms("claims")
    inside = sum(selft.get(n, 0.0) for n in INSIDE_CLAIMS) * 1e3 / n_trials
    return {
        "lp.calls": lp_calls / n_trials,
        "lp.infeasible_ratio": lp_notes.count("infeasible") / lp_calls if lp_calls else 0.0,
        "lp.pivots": tracer.pivots / n_trials if tracer.counts_pivots else None,
        "lp.pivots_per_call": (tracer.pivots / lp_calls if lp_calls else 0.0)
        if tracer.counts_pivots
        else None,
        "lp.ms": lp_ms / n_trials,
        "lp.ms_per_call": lp_ms / lp_calls if lp_calls else 0.0,
        "lp.failed": sum(1 for n in lp_notes if str(n).startswith("error:")) / n_trials,
        "solver.solve_game.ms": per_trial_ms("solver.solve_game"),
        "solver.solve_game.self_ms": per_trial_ms("solver.solve_game", selft),
        "solver.extrema.ms": per_trial_ms("solver.extrema"),
        "solver.extrema.self_ms": per_trial_ms("solver.extrema", selft),
        "spectral.gordan.ms": per_trial_ms("spectral.gordan"),
        "spectral.gordan.self_ms": per_trial_ms("spectral.gordan", selft),
        "spectral.stochastic_eigenvector.ms": per_trial_ms("spectral.stochastic_eigenvector"),
        "spectral.perron.ms": per_trial_ms("spectral.perron"),
        "spectral.perron.iterations": sum(
            s[NOTE] for s in spans if s[NAME] == "spectral.perron" and isinstance(s[NOTE], int)
        ) / n_trials,
        "claims.ms": claims_ms,
        "claims.self_ms": per_trial_ms("claims", selft),
        "core.digest.ms": per_trial_ms("core.digest"),
        "core.canonical_json.ms": per_trial_ms("core.canonical_json"),
        "trace.self_sum_ratio": inside / claims_ms if claims_ms else 0.0,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def environment(seed: int, malloc_pinned: bool) -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "malloc_threshold_pinned": malloc_pinned,
    }


# ---------------------------------------------------------------- one run


@dataclass
class Result:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str) -> None:
        print(f"# check {name}: {'ok' if ok else 'FAILED'} ({detail})")
        self.correct = self.correct and ok

    def count(self, p: Pass) -> None:
        self.attempted += len(p.outcomes)
        self.failed += len(p.failures)


def run_workload(name: str, seed: int, seconds: float, trace: bool, malloc_pinned: bool) -> Result:
    wl = WORKLOADS[name]
    res = Result()
    print(f"# env {json.dumps(environment(seed, malloc_pinned), sort_keys=True)}")
    print(
        f"# workload {name}: {wl.claim} on {wl.family} {wl.size}x{wl.size}, "
        f"seed {seed}, {TRIALS} trials per pass"
    )

    setups = []
    for _ in range(SETUP_REPEATS):
        t, prog, ensemble, claim = setup(wl, seed)
        setups.append(t)

    gate, mismatches, summary = gate_pass(prog, name)
    res.count(gate)
    res.check("reference_gate", not mismatches, summary)
    for m in mismatches[:5]:
        print(f"#   {m}")

    passes: list[Pass] = []
    traced: list[Pass] = []
    same = True
    start = perf_counter()
    while True:
        batch = [run_pass(prog, claim, ensemble)]
        if trace:
            batch.append(run_pass(prog, claim, ensemble, Tracer(prog.zerosum)))
        ref = passes[0] if passes else batch[0]
        for p in batch:
            res.count(p)
            if p is not ref:
                same = same and p.text == ref.text and p.failures == ref.failures
                p.release()
        if not passes:
            # Peak memory of set-up, gate and one full pass: later passes
            # repeat the same work, and only the allocator's reuse of freed
            # blocks would change the figure.
            first_rss = peak_rss_mb()
        passes.append(batch[0])
        traced.extend(batch[1:])
        # Stop before a batch that would end past `seconds`, once there are
        # two batches to take medians over.
        elapsed = perf_counter() - start
        if len(passes) >= MIN_BATCHES and elapsed * (1 + 1 / len(passes)) > seconds:
            break

    first = passes[0]
    res.check(
        "determinism",
        same,
        f"{len(passes) + len(traced)} passes render identical bytes and fail the same trials",
    )
    ok, detail = cli_equivalence(prog, wl, seed, first)
    res.check("cli_equivalence", ok, detail)
    for i, msg in first.failures:
        print(
            f"# failed trial {i} (seed {seed}): {msg} -- reproduce: zerosum verify "
            f"--claim {wl.claim} --ensemble {wl.family} --size {wl.size} "
            f"--trials {i + 1} --seed {seed}"
        )
    for i, msg in gate.failures:
        print(f"# failed reference trial {i}: {msg}")

    if not trace:
        latencies = trial_latencies(passes)
        attempted = sum(len(p.outcomes) for p in passes)
        failed = sum(len(p.failures) for p in passes)
        wall = wall_trials_per_s(passes)
        slowdown = statistics.median(f for p in passes for f in p.factors)
        print(
            f"# {len(passes)} passes, {attempted} latency samples over {len(latencies)} "
            f"trials; failed_ratio {failed / attempted:g} ({failed}/{attempted})"
        )
        print(
            f"# wall clock: {wall:.2f} trials/s (median pass) at a median "
            f"slowdown of {slowdown:.3f} against the reference speed; "
            f"peak RSS at the end {peak_rss_mb():.1f} MB"
        )
        res.metrics = {
            "trials_per_s": trials_per_s(passes),
            "trial_ms_p50": statistics.median(latencies) * 1e3,
            "trial_ms_p95": percentile(latencies, 95) * 1e3,
            "ok_ratio": (attempted - failed) / attempted,
            "report_bytes": len(first.text.encode("utf-8")),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": first_rss,
        }
        return res

    per_pass = [layer_metrics(p) for p in traced]
    repeated = all(
        [m[k] for m in per_pass] == [per_pass[0][k]] * len(per_pass) for k in REPEATED_COUNTS
    )
    pivots = traced[0].tracer.pivots if traced[0].tracer.counts_pivots else None
    res.check(
        "trace_counts_repeat",
        repeated,
        f"{len(traced)} traced passes; {pivots} pivots in each, over {len(ensemble)} trials",
    )
    ratios = [m["trace.self_sum_ratio"] for m in per_pass]
    res.check(
        "trace_self_sum",
        all(abs(r - 1.0) <= SELF_SUM_TOL for r in ratios),
        f"layer self times sum to {min(ratios):.4f}..{max(ratios):.4f} of claims.ms",
    )
    # Counts are equal in every pass (checked above); times are medians.
    metrics = {
        k: v if v is None or k in REPEATED_COUNTS else statistics.median(m[k] for m in per_pass)
        for k, v in per_pass[0].items()
        if k != "trace.self_sum_ratio"
    }

    gen = Tracer(prog.zerosum)
    probes = calibration_probes()
    gen.install()
    try:
        spec = ensemble_spec(prog, wl, seed, TRIALS)
        for _ in range(SETUP_REPEATS):
            prog.cli.generate_ensemble(spec)
    finally:
        gen.uninstall()
    probes += calibration_probes()
    metrics["cli.generate_ensemble.ms"] = statistics.median(
        (s[END] - s[START]) * 1e3 for s in gen.spans
    ) / speed_factor(probes)

    # Overhead at the reference speed and in raw wall time, from the same
    # interleaved passes.
    for label, rate in (("rescaled", trials_per_s), ("wall", wall_trials_per_s)):
        plain, with_trace = rate(passes), rate(traced)
        key = "trace.overhead_trials_per_s" if label == "rescaled" else "trace.overhead_wall_trials_per_s"
        metrics[key] = plain - with_trace
        print(
            f"# {label}: traced {with_trace:.2f} trials/s vs untraced {plain:.2f} "
            f"trials/s ({(plain - with_trace) / plain:.1%} overhead)"
        )
    if traced[0].tracer.missing:
        print(f"# not traced (absent): {', '.join(traced[0].tracer.missing)}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-{seed}.jsonl"
    traced[-1].tracer.write_jsonl(str(spans_path))
    print(f"# spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    res.metrics = metrics
    return res


def record_reference() -> None:
    """Write the gate's reference: the first GATE_TRIALS trials of every
    workload's default seed, one line per trial."""
    prog = import_program()
    parts = []
    for name, wl in WORKLOADS.items():
        ensemble = prog.cli.generate_ensemble(
            ensemble_spec(prog, wl, wl.default_seed, GATE_TRIALS)
        )
        p = run_pass(prog, prog.claims.ClaimId(wl.claim), ensemble)
        head = {"claim": wl.claim, "family": wl.family, "size": wl.size, "seed": wl.default_seed}
        rows = ",\n".join("  " + json.dumps(gated_quantities(o)) for o in p.outcomes)
        parts.append(f' "{name}": {json.dumps(head)[:-1]}, "trials": [\n{rows}\n ]}}')
        print(f"# {name}: {len(p.outcomes)} trials, {len(p.failures)} failed")
    REFERENCE.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")
    print(f"# wrote {REFERENCE.relative_to(ROOT)}")


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    doc = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def emit(res: Result, units: dict[str, str]) -> None:
    produced = {name.split("/")[-1] for name in res.metrics}
    if produced != set(units):
        raise BenchmarkError(
            f"metrics {sorted(produced ^ set(units))} differ from BENCHMARK.json"
        )
    for name, value in res.metrics.items():
        print(f"{name:<50} {value!s:>24} {units[name.split('/')[-1]]}")
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            k: {"value": v, "unit": units[k.split("/")[-1]]} for k, v in res.metrics.items()
        },
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, help="ensemble seed (default: the workload's)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        malloc_pinned = pin_malloc_threshold()
        units = declared_units("per_layer" if args.trace else "end_to_end")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        total = Result()
        for name in names:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            res = run_workload(name, seed, args.seconds, bool(args.trace), malloc_pinned)
            total.correct = total.correct and res.correct
            total.attempted += res.attempted
            total.failed += res.failed
            prefix = f"{name}/" if len(names) > 1 else ""
            total.metrics.update({prefix + k: v for k, v in res.metrics.items()})
        emit(total, units)
        return 0
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
