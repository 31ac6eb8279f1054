#!/usr/bin/env python3
"""Benchmark of the hyperreal library in this checkout.

Usage::

    python3 perfbench/run.py --workload analysis|series|cli|all \\
        --seed N --seconds S --trace 0|1

Runs ``src/`` of the checkout it sits in; nothing needs installing.  Every
answer is checked against ``oracle`` (plain Fraction arithmetic).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  Lines before it print every metric
by name and unit, the environment and any failed op.  ``--workload all``
runs each workload in turn in its own process.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("analysis", "series", "cli")
HELD_OUT_SEED = 9001
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env():
    env = dict(os.environ)
    env.pop("HYPERREAL_PRECISION", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Host-speed calibration
#
# The host's speed drifts by up to 30% either way within tens of seconds
# (README, Host noise), and it moves every timing with it.  So a fixed
# calibration unit that never touches the library runs before every op and
# after every set-up probe, and each timing is scaled by the unit's
# reference time over the median unit time next to it.  The in-process
# workloads use a unit of plain-Fraction work from ``oracle``, which drifts
# with them; ``cli`` uses the start of an interpreter that imports nothing,
# because its ops drift with process start-up and not with arithmetic.  The
# unscaled figures are printed as well.

CAL_WINDOW = 4  # unit samples taken on each side of an op
SETUP_CAL_UNITS = 5  # unit samples a set-up probe takes after its set-up
_CAL_SERIES = oracle.Series({Fraction(0): Fraction(2, 3), Fraction(1, 2): Fraction(-3, 4),
                             Fraction(1): Fraction(5, 2)})


def _fraction_work():
    oracle.binomial_power(Fraction(3, 2), Fraction(-5, 4), 30)
    oracle.inverse(_CAL_SERIES, 8)


def fraction_unit():
    """Seconds one fixed unit of Fraction work takes now.  The unit runs
    once untimed first, so an op that ran just before and left the caches
    cold does not count against the host."""
    _fraction_work()
    t0 = time.perf_counter()
    _fraction_work()
    return time.perf_counter() - t0


def spawn_unit():
    """Seconds an interpreter that imports nothing (``python -c pass``)
    takes to start and exit.  The output is captured so that the wait ends
    when the child closes it; a bare wait with a timeout polls at intervals
    of up to 50 ms and would round the time up to the next poll."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(),
                   capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - t0


class Calibrator:
    """A unit, its reference time, and how often a timed loop samples it
    (before every ``every``-th op)."""

    def __init__(self, name, unit, reference_s, every):
        self.name, self.unit, self.reference_s, self.every = name, unit, reference_s, every

    def sample(self, op_index):
        return self.unit() if op_index % self.every == 0 else None

    def scaled(self, latencies, units):
        """Latencies at reference speed, each against the median of the unit
        samples taken within CAL_WINDOW samples of it."""
        reach = CAL_WINDOW * self.every
        out = []
        for i, lat in enumerate(latencies):
            window = [u for u in units[max(0, i - reach): i + reach + 1] if u is not None]
            out.append(lat * self.reference_s / statistics.median(window))
        return out


# Reference times: about the medians on a 2-vCPU Xeon VM (Python 3.11.7).
FRACTION_CAL = Calibrator("Fraction unit", fraction_unit, 1e-3, every=1)
SPAWN_CAL = Calibrator("interpreter start", spawn_unit, 70e-3, every=2)


def calibrator_for(workload):
    return SPAWN_CAL if workload == "cli" else FRACTION_CAL


# ---------------------------------------------------------------------------
# Set-up: import, input generation, warm-up


def setup(workload, seed):
    """Everything before the first timed op; returns the op stream."""
    # Warm-up inputs come from a fixed seed, so every run's set-up does the
    # same work.
    if workload == "cli":
        stream = workloads.cli_stream(seed)
        for op in itertools.islice(workloads.cli_stream("warm-up"), 2):
            run_cli(op, [sys.executable, "-m", "hyperreal.cli"], child_env())
        return stream
    import hyperreal

    make = workloads.analysis_stream if workload == "analysis" else workloads.series_stream
    stream = make(hyperreal, seed)
    for op in itertools.islice(make(hyperreal, "warm-up"), 5):
        op.run()
    return stream


def measure_setup(workload, seed):
    """Median time from starting a fresh interpreter to its first timed op,
    unscaled and at reference speed.  Each probe is scaled by the units it
    runs itself once it is ready, so that they run where it ran."""
    samples, units = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            unit = proc.stdout.readline()
            proc.stdout.read()
        finally:
            watchdog.cancel()
            proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed for {workload}")
        units.append(float(unit))
    reference_s = calibrator_for(workload).reference_s
    at_ref = [t * reference_s / u for t, u in zip(samples, units)]
    return statistics.median(samples), statistics.median(at_ref)


# ---------------------------------------------------------------------------
# Timed loops


MIN_OPS = 100  # so that p90 has at least ten samples beyond it


class Tally:
    def __init__(self, cal):
        self.cal = cal
        self.latencies = []
        self.units = []  # calibration unit time taken just before each op, or None
        self.busy = 0.0
        self.failed = 0
        self.examples = []

    def record(self, kind, text, seconds, unit, ok, why=""):
        self.latencies.append(seconds)
        self.units.append(unit)
        self.busy += seconds
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(f"{kind}: {text} -> {why}")

    def done(self, seconds, min_ops):
        return self.busy >= seconds and len(self.latencies) >= min_ops

    def ops_per_s(self):
        """Ops per second inside ops, at reference speed."""
        return len(self.latencies) / sum(self.scaled())

    def scaled(self):
        return self.cal.scaled(self.latencies, self.units)


def run_ops(stream, seconds, tracer=None, min_ops=MIN_OPS):
    """Closed loop, one caller: the next op starts when the last is checked.

    Only the time inside the library call counts; generating the next input
    and checking the answer happen between ops, outside the measured time.
    """
    tally = Tally(FRACTION_CAL)
    clock = time.perf_counter
    while not tally.done(seconds, min_ops):
        op = next(stream)
        unit = tally.cal.sample(len(tally.latencies))
        t0 = clock()
        try:
            result = tracer.root(op.run) if tracer else op.run()
        except Exception as exc:  # an unexpected exception is a failed op
            tally.record(op.kind, op.text, clock() - t0, unit, False, repr(exc))
            continue
        elapsed = clock() - t0
        try:
            ok = op.check(result)
            why = "" if ok else f"wrong answer {result!r}"
        except Exception as exc:
            ok, why = False, f"check raised {exc!r} on {result!r}"
        tally.record(op.kind, op.text, elapsed, unit, ok, why)
    return tally


def run_cli(op, prefix, env):
    """Run one CLI op; returns (wall seconds, ok, detail, child report)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        prefix + op.argv, capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    report = None
    for line in proc.stderr.splitlines():
        if line.startswith("@@bench-report "):
            report = json.loads(line.split(" ", 1)[1])
    detail = f"exit {proc.returncode}: {proc.stdout.strip()[:200]} {proc.stderr.strip()[:200]}"
    try:
        answer = workloads.read_cli(op.argv, proc.returncode, proc.stdout)
        ok = answer is not None and op.check(answer)
    except Exception as exc:  # unreadable output is a failed op
        ok, detail = False, f"{detail} (unreadable: {exc!r})"
    return elapsed, ok, detail, report


def run_cli_ops(stream, seconds, prefix, min_ops=MIN_OPS):
    tally, reports = Tally(SPAWN_CAL), []
    env = child_env()
    while not tally.done(seconds, min_ops):
        op = next(stream)
        unit = tally.cal.sample(len(tally.latencies))
        elapsed, ok, detail, report = run_cli(op, prefix, env)
        tally.record(op.kind, " ".join(op.argv), elapsed, unit, ok, detail)
        reports.append(report)
    return tally, reports


# ---------------------------------------------------------------------------
# Metrics


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(latencies, setup_s, rss_kb):
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024,
    }


def environment(seed):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "hyperreal"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                with open(os.path.join(dirpath, name), "rb") as f:
                    digest.update(name.encode() + b"\0" + f.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def print_result(workload, metrics, units, tally_count, failed, examples):
    for line in examples:
        print(f"  FAILED {line}")
    width = max(len(n) for n in metrics)
    for name, value in metrics.items():
        print(f"  {workload:9} {name:{width}} {value:14.6g} {units[name]}")
    print(f"  {workload:9} ops {tally_count}, failed {failed}, fail_ratio {failed / max(tally_count, 1):.4g}")


# ---------------------------------------------------------------------------
# Per-layer (traced) run


def median_child_ms(argv, samples=5):
    env = child_env()
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def median_call(fn, repeat, number=1):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times)


def reference_points():
    """ROADMAP's reference points, measured untraced on fixed inputs."""
    import hyperreal as H

    x = H.HyperReal([(0, 3), (1, 2), (2, -1)])
    y = H.HyperReal([(0, H.as_fraction("1/2")), (1, -1), (3, 5)])
    three = H.HyperReal.from_rational(3) + H.EPS
    return {
        "ref.mul_us": 1e6 * median_call(lambda: x * y, 5, 2000),
        "ref.add_us": 1e6 * median_call(lambda: x + y, 5, 2000),
        "ref.inv_t16_ms": 1e3 * median_call(lambda: three.inv(), 5, 10),
        "ref.derivative_ms": 1e3 * median_call(lambda: H.derivative("1/(1+x^2)", 3), 5),
        "ref.pow600_s": median_call(lambda: H.eval_hyper("(1+eps)^600"), 1),
        "ref.ultrafilters5_s": median_call(lambda: H.enumerate_ultrafilters(5), 3),
        "ref.cli_eval_ms": median_child_ms([sys.executable, "-m", "hyperreal.cli", "eval", "(1+eps)^2"]),
    }


def startup_probes():
    interp = median_child_ms([sys.executable, "-c", "pass"])
    code = (
        "import time; t = time.perf_counter(); import hyperreal.cli; "
        "print(time.perf_counter() - t)"
    )
    env = child_env()
    samples = []
    for _ in range(5):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S, check=True).stdout
        samples.append(float(out))
    return {"cli.interp_ms": interp, "cli.import_ms": 1000 * statistics.median(samples)}


def layer_metrics(summary, shares, overhead, ops_traced, tally_all):
    layers, counts = summary["layers"], summary["counts"]
    out = {}
    for name in spans.LAYERS:
        calls, total_s, self_s = layers.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.total_s"] = total_s
    queries = layers.get("calculus.query", (0,))[0]
    scanned = counts.get("filters.candidates_scanned", 0)
    parse_calls = layers.get("calculus.parse", (0,))[0]
    out.update({
        "core.new.calls": counts.get("core.new.calls", 0),
        "core.terms_out": counts.get("core.terms_out", 0),
        "calculus.eval_per_query": counts.get("calculus.eval_in_query", 0) / queries if queries else 0.0,
        "calculus.parse_repeat_share": counts.get("calculus.parse_repeats", 0) / parse_calls if parse_calls else 0.0,
        "filters.candidates_scanned": scanned,
        "filters.hit_ratio": counts.get("filters.found", 0) / scanned if scanned else 0.0,
        "trace.overhead_ratio": overhead,
        "trace.ops": ops_traced,
        "fail_ratio": tally_all[1] / tally_all[0],
    })
    out.update({f"share.{k}": v for k, v in shares.items()})
    return out


def module_self(layers):
    by_module = dict.fromkeys(spans.MODULES, 0.0)
    for name, (_, _, self_s) in layers.items():
        module = name.split(".")[0]
        if module in by_module:
            by_module[module] += self_s
    return by_module


def traced_inprocess(workload, seed, seconds):
    import hyperreal

    plain = run_ops(setup(workload, seed), seconds / 2, min_ops=1)
    stream = setup(workload, seed)
    tracer = spans.Tracer()
    tracer.install(hyperreal)
    try:
        traced = run_ops(stream, seconds / 2, tracer, min_ops=1)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    layers = summary["layers"]
    total = layers[spans.ROOT][1]
    shares = {m: s / total for m, s in module_self(layers).items()}
    shares["startup"] = 0.0
    shares["bench"] = layers[spans.ROOT][2] / total
    for name in tracer.missing:
        print(f"  note: {name} not found, so not traced")
    return plain, traced, summary, shares, {"cli.run_ms": 0.0}


def traced_cli(seed, seconds):
    child = [sys.executable, os.path.join(HERE, "cli_child.py")]
    setup("cli", seed)
    plain, plain_reports = run_cli_ops(workloads.cli_stream(seed), seconds / 2, child + ["plain"], 1)
    traced, reports = run_cli_ops(workloads.cli_stream(seed), seconds / 2, child + ["trace"], 1)
    summary = spans.merge(r["trace"] for r in reports if r)
    layers = summary["layers"]
    # Start-up share from the untraced children; the split of cli.run from
    # the traced ones (tracing inflates run time, not start-up).
    runs = [r["run_s"] for r in plain_reports if r]
    startup = 1 - sum(runs) / plain.busy
    run_total = layers["cli.run"][1]
    shares = {m: (1 - startup) * s / run_total for m, s in module_self(layers).items()}
    shares["startup"] = startup
    shares["bench"] = 0.0
    return plain, traced, summary, shares, {"cli.run_ms": 1000 * statistics.median(runs)}


def traced_run(workload, seed, seconds):
    if workload == "cli":
        plain, traced, summary, shares, extra = traced_cli(seed, seconds)
    else:
        plain, traced, summary, shares, extra = traced_inprocess(workload, seed, seconds)
    attempted = len(plain.latencies) + len(traced.latencies)
    failed = plain.failed + traced.failed
    overhead = plain.ops_per_s() / traced.ops_per_s()
    metrics = layer_metrics(summary, shares, overhead, len(traced.latencies), (attempted, failed))
    metrics.update(extra)
    metrics.update(startup_probes())
    metrics.update(reference_points())
    print(f"  self-time shares on {workload} (traced run, {len(traced.latencies)} ops):")
    for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"    {name:11} {100 * value:6.2f} %")
    return metrics, attempted, failed, plain.examples + traced.examples


def unit_of(name):
    if name.endswith(".calls") or name in ("core.terms_out", "filters.candidates_scanned", "trace.ops"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    return "ratio"


# ---------------------------------------------------------------------------
# Entry point


def run_one(args):
    print(f"env {json.dumps(environment(args.seed))}")
    if args.trace:
        metrics, attempted, failed, examples = traced_run(args.workload, args.seed, args.seconds)
        units = {name: unit_of(name) for name in metrics}
    else:
        raw_setup_s, setup_s = measure_setup(args.workload, args.seed)
        stream = setup(args.workload, args.seed)
        if args.workload == "cli":
            tally, _ = run_cli_ops(stream, args.seconds, [sys.executable, "-m", "hyperreal.cli"])
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            tally = run_ops(stream, args.seconds)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(tally.scaled(), setup_s, rss)
        units = dict(END_TO_END)
        attempted, failed, examples = len(tally.latencies), tally.failed, tally.examples
        print(f"  {args.workload:9} latency samples {attempted}, "
              f"{attempted - int(0.9 * attempted)} beyond p90")
        taken = [u for u in tally.units if u is not None]
        q1, q2, q3 = (1000 * q for q in statistics.quantiles(taken, n=4))
        print(f"  {args.workload:9} calibration: {tally.cal.name} {q2:.4f} ms "
              f"(quartiles {q1:.4f}, {q3:.4f}); the metrics below are scaled to "
              f"{1000 * tally.cal.reference_s:g} ms")
        raw = end_to_end(tally.latencies, raw_setup_s, rss)
        for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s"):
            print(f"  {args.workload:9} unscaled {name} {raw[name]:.6g} {units[name]}")
    print_result(args.workload, metrics, units, attempted, failed, examples)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperreal", "__init__.py")):
        print(f"error: no hyperreal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        unit = calibrator_for(args.workload).unit
        print(statistics.median([unit() for _ in range(SETUP_CAL_UNITS)]), flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
