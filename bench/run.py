"""spinor-forge benchmark.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --all --seconds 15      # each workload in its own process
    python3 bench/run.py --self-test             # minimal sizes, corruption caught
    python3 bench/run.py --write-config          # rewrite BENCHMARK.json

Load model: one caller in a closed loop (one process, one thread, serial
operations).  A run sets up its inputs several times, then repeats whole
rounds of its workload's operations until ``--seconds`` have passed.  Every
operation is timed against the reference loop (``reference.py``) and its
output is checked after the round.  The last line of standard output is one
JSON object: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("analysis", "catalog", "errors", "forms", "linalg", "report", "scalars",
           "serialize", "spinrep", "twisted")
SETUPS = 3          # set-ups before the first round
SETUP_EVERY = 3.0   # seconds between further set-ups, taken between operations
NOMINAL_REF_S = 0.020
RUN_SECONDS = 15

END_TO_END = [
    {"name": "work_ref", "unit": "ref", "better": "lower", "bound": 0.15},
    {"name": "op_p50_ref", "unit": "ref", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

WORKLOAD_WHY = {
    "certify": "catalog spinors at the scale points: Clifford kernel, eta and the "
               "defect certificate; elimination idle",
    "random": "seeded dense random spinors over JSON: large supports, real "
              "denominators, failing certificates and the wire boundary",
    "holonomy": "annihilators, commutants and g2 span: system build, exact "
                "elimination and closure; kernel nearly idle",
    "report": "the twelve acceptance criteria serially, rendered as report --json",
}

# Per-layer metrics from the traced run: name -> (unit, better).
_SPAN_ROUND_MS = {  # self time per round of these spans
    "twisted.hermitian_ms": "twisted.hermitian",
    "forms.eta_ms": "forms.eta",
    "forms.endo_compose_ms": "forms.endo_compose",
    "analysis.frame_rotation_ms": "analysis.frame_rotation",
    "analysis.equivariance_ms": "analysis.equivariance",
    "analysis.annihilator_build_ms": "analysis.annihilator",
    "analysis.closure_ms": "analysis.closure",
    "analysis.commutant_ms": "analysis.commutant",
    "analysis.even_clifford_ms": "analysis.even_clifford",
    "linalg.nullspace_ms": "linalg.nullspace",
    "linalg.span_ms": "linalg.span",
}
_SPAN_CALL_MS = {  # self time per call
    "analysis.check_pure_ms": "analysis.check_pure",
    "analysis.check_reducing_ms": "analysis.check_reducing",
}
PER_LAYER: Dict[str, tuple] = {
    "scalars.gr_mul_ns": ("ns", "lower"),
    "spinrep.generator_calls": ("count", "lower"),
    "spinrep.generator_us": ("us", "lower"),
    "spinrep.generator_us_n8": ("us", "lower"),
    "spinrep.generator_us_n16": ("us", "lower"),
    "spinrep.generator_us_n20": ("us", "lower"),
    "twisted.slot_action_calls": ("count", "lower"),
    "forms.eta_calls": ("count", "lower"),
    **{name: ("ms", "lower") for name in [*_SPAN_ROUND_MS, *_SPAN_CALL_MS]},
    "linalg.rows_in": ("count", "lower"),
    "linalg.rows_distinct": ("count", "lower"),
    "linalg.rank_per_row": ("ratio", "higher"),
    "catalog.build_ms": ("ms", "lower"),
    "serialize.decode_us": ("us", "lower"),
    "serialize.encode_us": ("us", "lower"),
    **{f"report.{row}_ref": ("ref", "lower") for row in workloads.REPORT_ROWS},
    "trace.overhead_ref": ("ref", "lower"),
}


# -- the program ------------------------------------------------------------------

def _forget_program() -> None:
    for name in [k for k in sys.modules if k.split(".")[0] == "spinor_forge"]:
        del sys.modules[name]


def import_program() -> SimpleNamespace:
    """A fresh import of spinor_forge and its modules, compiled from source:
    bytecode caches are looked up under a directory that is never written,
    so set-up time does not depend on what the checkout or the environment
    has cached."""
    _forget_program()
    prefix, sys.pycache_prefix = sys.pycache_prefix, str(ROOT / "bench" / "out" / "pycache")
    try:
        package = importlib.import_module("spinor_forge")
        mods = {m: importlib.import_module(f"spinor_forge.{m}") for m in MODULES}
    finally:
        sys.pycache_prefix = prefix
    return SimpleNamespace(package=package, **mods)


def setup(workload: str, seed: int, small: bool):
    """Import the program and build every input; returns (program, inputs)."""
    sf = import_program()
    return sf, workloads.WORKLOADS[workload][0](sf, seed, small)


def timed(fn, ref_before: float, sampler: reference.Sampler):
    """Run ``fn`` with reference samples before, after and during it.
    Returns (output, seconds less sampling, time in ref units, the closing
    reference sample)."""
    with sampler:
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
    ref_after = reference.reference_seconds()
    raw = (t1 - t0) - sampler.stolen(t0, t1)
    return out, raw, raw / statistics.fmean([ref_before, ref_after, *sampler.samples]), ref_after


class SetupTimer:
    """Set-up times, timed against the reference like operations and
    sampled across the whole run: a few set-ups before the first round, then
    one every ``SETUP_EVERY`` seconds between operations.  Only the first
    set-up's program and inputs are used; later ones are discarded and the
    module table is restored.

    ``setup_s`` must be in seconds, but raw seconds drift with the machine:
    set-up medians of ten-run sets taken half an hour apart differed by up
    to 20 %.  So ``seconds`` is the median time in ref units times
    ``NOMINAL_REF_S``: seconds on a machine where the reference loop takes
    that long (about what it takes on a 2-core Intel Xeon machine)."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.raw: List[float] = []
        self.ref: List[float] = []
        self.sf, self.inp = self._sample()
        self.modules = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "spinor_forge"}
        for _ in range(SETUPS - 1):
            self._sample()
        self._restore()
        self.last = time.perf_counter()

    def _sample(self):
        out, raw, ref, _ = timed(lambda: setup(self.workload, self.seed, small=False),
                                 reference.reference_seconds(), reference.Sampler())
        self.raw.append(raw)
        self.ref.append(ref)
        return out

    def _restore(self) -> None:
        _forget_program()
        sys.modules.update(self.modules)

    def between_ops(self) -> bool:
        """Take a set-up sample if one is due; True if it did."""
        if time.perf_counter() - self.last < SETUP_EVERY:
            return False
        self._sample()
        self._restore()
        self.last = time.perf_counter()
        return True

    def seconds(self) -> float:
        return statistics.median(self.ref) * NOMINAL_REF_S


# -- rounds -----------------------------------------------------------------------

def run_round(ops: List[workloads.Op], tracer: Optional[tracing.Tracer] = None,
              corrupt: bool = False, setups: Optional[SetupTimer] = None) -> List[dict]:
    """Run every operation once, timed against reference samples taken
    before, after and during it, then check every output.  Traced rounds
    take no samples during operations, which would land inside spans."""
    outputs: Dict[str, Any] = {}
    records = []
    gc.collect()  # every round starts from a collected heap
    sampler = reference.Sampler(0 if tracer is not None else reference.PERIOD)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    ref_before = reference.reference_seconds()
    for op in ops:
        def call(op=op):
            with span(op.name):
                try:
                    return op.run(outputs)
                except Exception as exc:  # an operation's failure is data, not a crash
                    return workloads.Raised(exc)
        outputs[op.name], raw, ref, ref_before = timed(call, ref_before, sampler)
        records.append({"op": op, "raw": raw, "ref": ref})
        if setups is not None and setups.between_ops():
            ref_before = reference.reference_seconds()
    with tracer.paused() if tracer is not None else nullcontext():
        for rec in records:
            out = outputs[rec["op"].name]
            if corrupt:
                out = workloads.corrupt(out)
            try:
                rec["ok"] = bool(rec["op"].check(out))
            except Exception:
                rec["ok"] = False
            # Outputs are not kept past their round, so that the peak RSS
            # does not grow with the number of rounds a run fits in.
            rec["failure"] = None if rec["ok"] else repr(out)[:300]
    return records


def run_rounds(ops, seconds: float, tracer=None, on_round=None,
               setups: Optional[SetupTimer] = None) -> List[List[dict]]:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        if on_round is not None:
            on_round(len(rounds))
        rounds.append(run_round(ops, tracer, setups=setups))
    return rounds


def tally(rounds: List[List[dict]]) -> Dict[str, Any]:
    records = [rec for rnd in rounds for rec in rnd]
    failed = [rec for rec in records if not rec["ok"]]
    reported = set()
    for rec in failed:
        name = rec["op"].name
        if name not in reported:
            reported.add(name)
            known = " (known fault)" if rec["op"].known_fault else ""
            print(f"failed{known}: {name}: {rec['failure']}", file=sys.stderr)
    return {
        "correct": all(rec["op"].known_fault for rec in failed),
        "attempted": len(records),
        "failed": len(failed),
    }


def round_work(rnd: List[dict], key: str) -> float:
    return sum(rec[key] for rec in rnd)


def per_op(rounds: List[List[dict]], key: str) -> Dict[str, float]:
    """Each operation's median time over the rounds."""
    times: Dict[str, List[float]] = {}
    for rnd in rounds:
        for rec in rnd:
            times.setdefault(rec["op"].name, []).append(rec[key])
    return {name: statistics.median(v) for name, v in times.items()}


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median (Biometrika 69, 1982): the order
    statistics weighted by a Beta((n+1)/2, (n+1)/2) density.  Operation
    times in one workload are spread unevenly, and the plain median of
    42 operations jumped between two clusters 25 % apart from run to run;
    this estimate moves smoothly when operations near the middle trade
    places."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def density(t: float) -> float:
        return math.exp((a - 1) * math.log(t * (1 - t)) - log_norm) if 0 < t < 1 else 0.0

    def mass(lo: float, hi: float, panels: int = 32) -> float:  # Simpson's rule
        h = (hi - lo) / panels
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, panels))
        return h / 3 * (density(lo) + inner + density(hi))

    weights = [mass(i / n, (i + 1) / n) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def op_median(rounds: List[List[dict]], key: str) -> float:
    """Median (Harrell-Davis) over a round's operations of each one's
    median time over the rounds."""
    return hd_median(per_op(rounds, key).values())


# -- micro-benchmarks -------------------------------------------------------------

def _per_call(fn, calls: int, seconds: float = 0.2) -> float:
    """Seconds per call of ``fn``, which makes ``calls`` calls: the median
    of 5 passes, each repeating ``fn`` for at least ``seconds`` / 5."""
    per = []
    for _ in range(5):
        reps, t0 = 0, time.perf_counter()
        while True:
            fn()
            reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds / 5:
                break
        per.append(elapsed / (reps * calls))
    return statistics.median(per)


def micro_benchmarks(sf, spinors, seed: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    rng = random.Random(seed)
    values = [c for phi in spinors for c in phi.coeffs.values()]
    pairs = [(rng.choice(values), rng.choice(values)) for _ in range(2000)]

    def mul():
        for a, b in pairs:
            a * b
    out["scalars.gr_mul_ns"] = _per_call(mul, len(pairs)) * 1e9

    per_n = {}
    for m in (2, 4, 5):  # n = 4m = 8, 16, 20
        phi = sf.catalog.build_qk_pure(m).spinor
        psi = sf.spinrep.SpinorVector(phi.n, {spin: sf.scalars.gr(1) for spin, _ in phi.coeffs})

        def apply(psi=psi, n=phi.n):
            for i in range(1, n + 1):
                sf.spinrep.kappa_generator(n, i, psi)
        per_n[phi.n] = _per_call(apply, phi.n) * 1e6
        out[f"spinrep.generator_us_n{phi.n}"] = per_n[phi.n]
    out["spinrep.generator_us"] = statistics.mean(per_n.values())

    wires = [sf.serialize.scaled_spinor_to_json(phi) for phi in spinors]
    out["serialize.encode_us"] = _per_call(
        lambda: [sf.serialize.scaled_spinor_to_json(phi) for phi in spinors], len(spinors)) * 1e6
    out["serialize.decode_us"] = _per_call(
        lambda: [sf.serialize.scaled_spinor_from_json(w) for w in wires], len(wires)) * 1e6
    return out


# -- one workload -----------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    setups = SetupTimer(workload, seed)
    ops = workloads.WORKLOADS[workload][1](setups.sf, setups.inp)
    rounds = run_rounds(ops, seconds, setups=setups)
    setup_s = setups.seconds()
    result = tally(rounds)
    work_ref = statistics.median(round_work(r, "ref") for r in rounds)
    work_s = statistics.median(round_work(r, "raw") for r in rounds)
    op_ref = op_median(rounds, "ref")
    op_s = op_median(rounds, "raw")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{workload}: {len(rounds)} rounds of {len(ops)} operations, seed {seed}")
    print(f"  work_ref    {work_ref:10.3f} ref  (raw {work_s:.4f} s per round)")
    print(f"  op_p50_ref  {op_ref:10.5f} ref  (raw {op_s:.6f} s)")
    print(f"  setup_s     {setup_s:10.5f} s  (raw {statistics.median(setups.raw):.5f} s, "
          f"median of {len(setups.raw)})")
    print(f"  peak_rss_mb {rss_mb:10.2f} MB")
    result["metrics"] = {
        "work_ref": {"value": work_ref, "unit": "ref"},
        "op_p50_ref": {"value": op_ref, "unit": "ref"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return result


def traced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced rounds for half the time, then traced rounds for the rest."""
    sf, inp = setup(workload, seed, small=False)
    build, make_ops, spinors = workloads.WORKLOADS[workload]
    ops = make_ops(sf, inp)
    plain = run_rounds(ops, seconds / 2)

    tracer = tracing.Tracer(sf.package, {m: getattr(sf, m) for m in MODULES})
    tracer.install()
    try:
        tracer.tag = "setup"
        build(sf, seed, False)  # for catalog.build_ms only; inputs are kept
        counts_before = []

        def tag_round(i):
            tracer.tag = f"round{i}"
            counts_before.append(dict(tracer.counts))
        rounds = run_rounds(ops, seconds / 2, tracer, on_round=tag_round)
    finally:
        tracer.uninstall()
    counts_before.append(dict(tracer.counts))

    per_round_counts = [{k: after.get(k, 0) - before.get(k, 0) for k in after}
                        for before, after in zip(counts_before, counts_before[1:])]
    if any(c != per_round_counts[0] for c in per_round_counts):
        raise RuntimeError("per-round counts differ between identical rounds")
    counts = per_round_counts[0]

    metrics: Dict[str, float] = {}
    summaries = [tracer.self_times(f"round{i}") for i in range(len(rounds))]
    for metric, span in _SPAN_ROUND_MS.items():
        metrics[metric] = statistics.median(t.get(span, 0.0) for t, _ in summaries) * 1e3
    for metric, span in _SPAN_CALL_MS.items():
        calls = summaries[0][1][span]
        metrics[metric] = (statistics.median(t.get(span, 0.0) for t, _ in summaries)
                           * 1e3 / calls if calls else 0.0)
    metrics["forms.eta_calls"] = summaries[0][1]["forms.eta"]
    metrics["spinrep.generator_calls"] = counts.get("spinrep.generator", 0)
    metrics["twisted.slot_action_calls"] = counts.get("twisted.slot_action", 0)
    rows_in = counts.get("linalg.rows_in", 0)
    metrics["linalg.rows_in"] = rows_in
    metrics["linalg.rows_distinct"] = counts.get("linalg.rows_distinct", 0)
    metrics["linalg.rank_per_row"] = counts.get("linalg.rank", 0) / rows_in if rows_in else 0.0
    metrics["catalog.build_ms"] = tracer.self_times("setup")[0].get("catalog.build", 0.0) * 1e3
    op_refs = per_op(plain, "ref")
    for row in workloads.REPORT_ROWS:
        metrics[f"report.{row}_ref"] = op_refs.get(f"criterion:{row}", 0.0)
    plain_ref = statistics.median(round_work(r, "ref") for r in plain)
    traced_ref = statistics.median(round_work(r, "ref") for r in rounds)
    metrics["trace.overhead_ref"] = traced_ref - plain_ref
    metrics.update(micro_benchmarks(sf, spinors(sf, inp), seed))

    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace_{workload}_{seed}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "rounds": len(rounds),
                   "per_round_counts": counts, "metrics": metrics,
                   "untraced_ops": {"raw_s": per_op(plain, "raw"), "ref": op_refs},
                   **tracer.dump()}, fh)

    print(f"{workload}: traced {len(rounds)} rounds after {len(plain)} untraced, seed {seed}")
    print(f"  tracing overhead {traced_ref - plain_ref:.3f} ref on {plain_ref:.3f} ref "
          f"per round ({(traced_ref / plain_ref - 1) * 100:.1f} %)")
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.4f} {PER_LAYER[name][0]}")
    result = tally(plain + rounds)
    result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, (unit, _) in PER_LAYER.items()}
    return result


# -- other modes ------------------------------------------------------------------

def self_test() -> int:
    """Each workload at minimal size: no failure but the known faults, and a
    corrupted output of every operation counted as failed."""
    good = True
    for workload, (build, make_ops, _) in workloads.WORKLOADS.items():
        sf, inp = setup(workload, 1, small=True)
        ops = make_ops(sf, inp)
        plain = run_round(ops)
        bad = [r["op"].name for r in plain if not r["ok"] and not r["op"].known_fault]
        corrupted = run_round(ops, corrupt=True)
        missed = [r["op"].name for r in corrupted if r["ok"]]
        print(f"{workload}: {len(ops)} operations, unexpected failures {bad}, "
              f"corruptions missed {missed}")
        good = good and not bad and not missed
    print("self-test", "passed" if good else "FAILED")
    return 0 if good else 1


def write_config() -> None:
    config = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in workloads.WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()],
    }
    with open(ROOT / "BENCHMARK.json", "w") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process; one line per end-to-end metric."""
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:12s} {m['value']:12.4f} {m['unit']}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-config", action="store_true")
    args = ap.parse_args(argv)

    if args.write_config:
        write_config()
        return 0
    # The program's default is serial; a thread cap from the caller's shell
    # would change what is measured.
    os.environ.pop("SPINOR_FORGE_THREADS", None)
    # The oracle's numpy must not start a BLAS thread pool: the reference
    # loop refuses to run beside another thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True  # the benchmark writes only its results
    if not (SRC / "spinor_forge" / "__init__.py").is_file():
        print(f"spinor_forge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        run = traced if args.trace else end_to_end
        result = run(args.workload, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
