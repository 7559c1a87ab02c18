"""Run one benchmark workload against the nilcert source in ./src.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process per run, one caller, closed
loop.  The run sets up, then repeats whole rounds of the workload until S
seconds have passed, checks every output, writes a results record under
perfbench/out/results/ and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.
setup_s is the median of seven set-ups, each in a fresh interpreter.  Each
is split into its start (interpreter start and imports), divided by the
time of the start kernel around it (a fresh interpreter importing the same
libraries, without nilcert), and its body (inputs and module builds),
divided by the time of the Howell kernel timed in the same interpreter
right after it; each part is then scaled by its kernel's nominal time, so
setup_s reads as set-up seconds at the speed of the host that README.md's
figures come from.  wall_rel is the median over rounds of the round's time
divided by the time of the workload's reference kernel, timed around the
round or, for operator_laws, sampled inside it.  peak_rss_mb is read when
the rounds end, before the checks.  The raw times go to the results
record.  With --trace 1 the metrics are
the per-layer ones: the run sets up under the tracer (tracing.py), runs
untraced rounds (a warm-up round, then a quarter of --seconds) for the
tracing overhead, then its rounds under the tracer, and also writes the
spans and a per-layer table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7
# a fresh interpreter that imports what nilcert and the benchmark import
START_KERNEL = [
    sys.executable, "-c", "import numpy, argparse, dataclasses, fractions, json, random",
]
# the kernels' median times on the host of README.md's figures
START_KERNEL_NOMINAL_S = 0.15
HOWELL_KERNEL_NOMINAL_S = 0.014


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_nilcert(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import nilcert
    import nilcert.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(nilcert.__file__))) != src:
        raise ImportError(f"nilcert was imported from {nilcert.__file__}, not {src}")
    return nilcert


def spawn(command):
    """(wall time from start to exit, standard output) of one child process."""
    started = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    # Popen.wait(timeout) polls in steps of up to 50 ms, which would show in
    # the figure; a blocking read with a watchdog ends exactly when the child does
    watchdog = threading.Timer(170, child.kill)
    watchdog.start()
    try:
        out, _ = child.communicate()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - started
    if child.returncode != 0:
        raise subprocess.CalledProcessError(child.returncode, command)
    return elapsed, out


def start_kernel_seconds():
    return statistics.median(spawn(START_KERNEL)[0] for _ in range(3))


def time_setup(args):
    """One dict per probe, for SETUP_PROBES fresh interpreters that import
    nilcert, make the inputs and build what the workload needs, then exit:
    the probe's seconds; its body's seconds, the Howell kernel's and the
    time spent timing that kernel, as the probe reports them; and the start kernel's, the mean of its median of
    three just before and just after the probe."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    kernels = [start_kernel_seconds()]
    samples = []
    for _ in range(SETUP_PROBES):
        seconds, out = spawn(command)
        kernels.append(start_kernel_seconds())
        sample = json.loads(out)
        sample.update(seconds=seconds, start_kernel_s=(kernels[-2] + kernels[-1]) / 2)
        samples.append(sample)
    return samples


def setup_seconds(sample):
    """One probe's set-up time at the nominal kernels' speed."""
    start_s = sample["seconds"] - sample["body_s"] - sample["kernel_run_s"]
    start = start_s / sample["start_kernel_s"]
    body = sample["body_s"] / sample["howell_kernel_s"]
    return START_KERNEL_NOMINAL_S * start + HOWELL_KERNEL_NOMINAL_S * body


def median_seconds(kernel):
    """Median of three timings of `kernel`."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


class Sampler:
    """Runs `kernel` on a SIGALRM timer every `every` seconds, in the main
    thread between bytecodes, and keeps the time of each run.  The cyclic
    garbage collector is held off during a run: a full collection over
    the round's heap would otherwise land in a sample now and then."""

    def __init__(self, kernel, every):
        self.kernel, self.every, self.samples = kernel, every, []

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - started)
        if collecting:
            gc.enable()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def run_rounds(workload, seconds, minimum, first_index, sampled=False):
    """Whole rounds until `seconds` have passed.  A round's reference_s is
    the mean of the reference kernel timed just before and just after it.
    With `sampled`, for a workload whose rounds outlast the host's speed
    phases, it is the mean of the kernel's runs inside the round instead,
    one every workload.sample_every seconds, and their time is taken out
    of the round's."""
    rounds = []
    before = median_seconds(workload.reference)
    started = time.perf_counter()
    while len(rounds) < minimum or time.perf_counter() - started < seconds:
        index = first_index + len(rounds)
        if sampled:
            with Sampler(workload.reference, workload.sample_every) as sampler:
                result = workload.round(index)
            result.seconds -= sum(sampler.samples)
        else:
            result = workload.round(index)
        after = median_seconds(workload.reference)
        if sampled and sampler.samples:
            result.reference_s = statistics.fmean(sampler.samples)
        else:
            result.reference_s = (before + after) / 2
        before = after
        rounds.append(result)
    return rounds


def machine_facts():
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def layer_table(metrics, units):
    width = max(len(name) for name in units)
    return "\n".join(f"{name.ljust(width)}  {metrics[name]:>14.6g} {units[name]}" for name in units)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "nilcert", "__init__.py")):
        return fail("no nilcert source in ./src/nilcert; run from the repository root")
    if not os.path.isfile(spec_path):
        return fail("no BENCHMARK.json here; run from the repository root")
    sys.path.insert(0, HERE)
    import refcheck
    from workloads import WORKLOADS, HowellKernel

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in group}

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    if args.setup_probe:
        workload = WORKLOADS[args.workload](load_nilcert(root), args.seed, workdir)
        started = time.perf_counter()
        workload.setup()
        body_s = time.perf_counter() - started
        howell_kernel_s = median_seconds(HowellKernel())
        print(json.dumps({
            "body_s": body_s,
            "howell_kernel_s": howell_kernel_s,
            # the kernel's timing is in the probe's time, and not set-up
            "kernel_run_s": time.perf_counter() - started - body_s,
        }))
        return 0

    setup_samples = [] if args.trace else time_setup(args)
    nilcert = load_nilcert(root)
    workload = WORKLOADS[args.workload](nilcert, args.seed, workdir)
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(nilcert)
            tracer.install("setup")
            try:
                workload.setup()
            finally:
                tracer.uninstall()
            # round 0 warms caches and keeps the outputs for the checks
            untraced = run_rounds(workload, args.seconds / 4, 2, 0)
            tracer.install("round")
            try:
                traced = run_rounds(workload, args.seconds, 1, len(untraced))
            finally:
                tracer.uninstall()
            tracer.rounds = len(traced)
            rounds = untraced + traced
        else:
            workload.setup()
            sampled = workload.sample_every is not None
            rounds = run_rounds(workload, args.seconds, workload.min_rounds, 0, sampled)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = [problem for r in rounds for problem in r.problems]
        problems += workload.full_check()
        problems += [f"reference checker: {p}" for p in refcheck.self_test()]
        extra = workload.extra()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    round_seconds = [r.seconds for r in rounds]
    if args.trace:
        metrics = tracer.layer_metrics(units)
        metrics["trace.wall_s"] = statistics.median(r.seconds for r in traced)
        untraced_wall_s = statistics.median(r.seconds for r in untraced[1:])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall_s
        extra["untraced_wall_s"] = untraced_wall_s
    else:
        metrics = {
            "setup_s": statistics.median(setup_seconds(sample) for sample in setup_samples),
            "wall_rel": statistics.median(r.seconds / r.reference_s for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
    extra["ops_per_s"] = attempted / sum(round_seconds)
    extra["wall_s"] = statistics.median(round_seconds)
    extra["reference_s"] = statistics.median(r.reference_s for r in rounds)
    if set(metrics) != set(units):
        return fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems[:50],
        "errors": [error for r in rounds for error in r.errors][:50],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "extra": extra,
        "round_seconds": round_seconds,
        "reference_seconds": [r.reference_s for r in rounds],
        "setup_probes": setup_samples,
        "machine": machine_facts(),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", stem + ".json"), "w", encoding="ascii") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.write_spans(
            os.path.join(OUT, "traces", stem + ".spans.json"),
            {"workload": args.workload, "seed": args.seed, "rounds": tracer.rounds},
        )
        table = layer_table(metrics, units)
        with open(os.path.join(OUT, "traces", stem + ".layers.txt"), "w") as handle:
            handle.write(table + "\n")
        print(table, file=sys.stderr)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
