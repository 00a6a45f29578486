"""One benchmark workload in one process (started by run.py, which pins the
BLAS/OpenMP pools to one thread before this process starts).

Phases:
  set-up   import movingbeliefs, build the seed's inputs, run one warm-up
           operation; timed as ``setup_s``.
  measure  whole rounds of ROUND operations until ``--seconds`` have passed
           and at least MIN_OPS operations were timed.  A reference sample
           (refloop.py) is taken right before and right after every
           operation, and the operation's time is rescaled by it.
  trace    (--trace 1) alternating untraced and traced rounds over the same
           fixed operations, to give per-layer numbers and the tracing
           overhead.
Every operation's output is checked outside the timed region.  The last line
of standard output is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import refloop  # imports numpy, so numpy's import is not part of set-up time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUND = 4
MIN_OPS = 40
HARD_STOP_S = 140.0
MAX_REPORTED_FAILURES = 5


def tail_ms(times):
    """Highest percentile with at least ten operations beyond it."""
    s = sorted(times)
    return s[max(len(s) - 11, 0)]


class Runner:
    def __init__(self, workload_cls, seed, scratch):
        self.wl = workload_cls(seed, scratch)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _note(self, msg):
        if len(self.problems) < MAX_REPORTED_FAILURES:
            print(f"[{self.wl.name}] {msg}", file=sys.stderr)
        self.problems.append(msg)

    def run_op(self, i, timed=None):
        """Run operation i and check it.  Returns (drift-corrected seconds,
        correction factor), or (None, 1.0) when the operation raised.
        ``timed`` replaces the plain timing (the tracer uses it)."""
        self.attempted += 1
        before = refloop.reference_sample()
        try:
            if timed is None:
                t0 = time.perf_counter()
                out = self.wl.op(i)
                raw = time.perf_counter() - t0
            else:
                out, raw = timed(lambda: self.wl.op(i))
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            print(f"[{self.wl.name}] op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None, 1.0
        after = refloop.reference_sample()
        try:
            for msg in self.wl.check(i, out):
                self._note(f"op {i}: {msg}")
        except Exception:
            self._note(f"op {i}: check raised\n{traceback.format_exc()}")
        factor = refloop.NOMINAL_REF_S / (0.5 * (before + after))
        return raw * factor, factor


def set_up(name, seed, scratch):
    """Returns (runner, drift-corrected set-up seconds)."""
    before = refloop.reference_sample()
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    runner = Runner(WORKLOADS[name], seed, scratch)
    out = runner.wl.op(0)
    elapsed = time.perf_counter() - t0
    after = refloop.reference_sample()
    runner.attempted += 1
    for msg in runner.wl.check(0, out):
        runner._note(f"warm-up op: {msg}")
    return runner, refloop.correct(elapsed, before, after)


def measure(runner, seconds):
    times, factors = [], []
    i = 1
    t_end = time.perf_counter() + seconds
    hard_stop = time.perf_counter() + HARD_STOP_S
    while True:
        for _ in range(ROUND):
            t, factor = runner.run_op(i)
            if t is not None:
                times.append(t)
                factors.append(factor)
            i += 1
        now = time.perf_counter()
        if (now >= t_end and len(times) >= MIN_OPS) or now >= hard_stop:
            break
    raw = [t / f for t, f in zip(times, factors)]
    print(
        f"[{runner.wl.name}] {len(times)} timed ops; raw p50 {1e3 * statistics.median(raw):.3f} ms, "
        f"corrected p50 {1e3 * statistics.median(times):.3f} ms, median reference "
        f"{1e3 * refloop.NOMINAL_REF_S / statistics.median(factors):.4f} ms",
        file=sys.stderr,
    )
    return {
        "op_ms_p50": 1e3 * statistics.median(times),
        "op_ms_tail": 1e3 * tail_ms(times),
    }


def trace(runner, seconds):
    from layers import EXTRAS, Tracer, metric_units

    tracer = Tracer()
    untraced, traced = [], []
    self_ms = {}
    traced_ops = 0
    t_end = time.perf_counter() + seconds

    def timed(fn):
        tracer.install()
        try:
            return tracer.run(fn)
        finally:
            tracer.uninstall()

    while True:
        for i in range(1, ROUND + 1):
            t, _ = runner.run_op(i)
            if t is not None:
                untraced.append(t)
        for i in range(1, ROUND + 1):
            t, factor = runner.run_op(i, timed)
            if t is None:
                continue
            traced.append(t)
            traced_ops += 1
            for key, v in tracer.self_s.items():
                self_ms[key] = self_ms.get(key, 0.0) + 1e3 * v * factor
        if time.perf_counter() >= t_end and len(traced) >= 2 * ROUND:
            break

    n = max(traced_ops, 1)
    metrics = {}
    for name, unit in metric_units().items():
        if name in EXTRAS:
            metrics[name] = (tracer.extra[name] / n, unit)
        elif name.endswith(".calls"):
            metrics[name] = (tracer.calls[name[: -len(".calls")]] / n, unit)
        elif name.endswith(".self_ms"):
            metrics[name] = (self_ms.get(name[: -len(".self_ms")], 0.0) / n, unit)
    w_sum, w_n = tracer.w1_err
    metrics["beliefs.w1_err"] = (w_sum / w_n if w_n else 0.0, "length")
    p_un = 1e3 * statistics.median(untraced)
    p_tr = 1e3 * statistics.median(traced)
    metrics["trace.untraced_op_ms_p50"] = (p_un, "ms")
    metrics["trace.traced_op_ms_p50"] = (p_tr, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (p_tr / p_un - 1.0), "%")
    total_self = sum(self_ms.values()) / n
    mean_traced = 1e3 * statistics.fmean(traced)
    print(
        f"[{runner.wl.name}] traced: {traced_ops} ops, self times sum to {total_self:.3f} ms "
        f"per op against a mean traced op of {mean_traced:.3f} ms; traced p50 {p_tr:.3f} ms "
        f"vs untraced p50 {p_un:.3f} ms (overhead {metrics['trace.overhead_pct'][0]:+.2f} %)",
        file=sys.stderr,
    )
    return {k: metrics[k] for k in metric_units()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        runner, setup_s = set_up(args.workload, args.seed, scratch)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics = trace(runner, args.seconds)
        else:
            metrics = {k: (v, "ms") for k, v in measure(runner, args.seconds).items()}
            metrics["setup_s"] = (setup_s, "s")
        for msg in runner.wl.final_check():
            runner._note(f"final check: {msg}")
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            metrics["peak_rss_mb"] = (peak_mb, "MB")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
