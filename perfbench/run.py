"""vineboost benchmark: seeded closed-loop workloads with checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pair-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7

One process runs one workload: set-up (timed three times),
then operations one after another until ``--seconds`` would be exceeded.
OpenBLAS runs one thread unless ``OPENBLAS_NUM_THREADS`` is set.
Every operation's output is checked.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it carries details: sample
counts, the tail percentile, failures and the environment stamp.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Before numpy loads: on two CPUs a second OpenBLAS thread spins between the
# many small BLAS calls of a fit and occupies the other CPU, so op times
# would depend on whatever else runs on the machine.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import timing  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("pair-wide", "pair-cv", "vine-cli", "forecast")
END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=reference.DEFAULT_SEED,
                        help=f"workload seed (default: the reference seed, {reference.DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true", dest="record_reference",
                        help="record reference outputs of one input cycle of every workload and exit")
    return parser.parse_args(argv)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Runs the output checks of one workload and collects failures."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.ref_ops = None
        self.ref_problem = None
        if seed == reference.DEFAULT_SEED:
            self.ref_ops, self.ref_problem = reference.for_workload(reference.load(), workload)

    def __call__(self, k, run):
        """Time ``run()`` as operation k and check its output; returns (seconds, output)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # a raising operation is a failed operation
            elapsed = time.perf_counter() - start
            self.failures.append([f"op {k} raised {exc!r}"])
            return elapsed, None
        elapsed = time.perf_counter() - start
        try:
            problems = self.workload.check(k, out)
            if self.ref_problem is not None:
                problems.append(self.ref_problem)
            elif self.ref_ops is not None:
                expected = self.ref_ops[k % self.workload.cycle]
                problems += reference.compare(self.workload.summary(k, out), expected, f"op {k}")
        except Exception as exc:  # so is one whose output cannot be checked
            problems = [f"op {k}: output check raised {exc!r}"]
        if problems:
            self.failures.append(problems)
        return elapsed, out


def _add_steps(rates, out):
    """Collect the step throughputs a forecast round reports."""
    if isinstance(out, dict):
        for name, value in out["steps"].items():
            rates.setdefault(name, []).append(value)


def run_plain(cls, args, workdir, import_s):
    setup = []
    for _ in range(SETUP_REPEATS):
        workload = None  # drop the previous inputs, so peak RSS holds one set-up
        start = time.perf_counter()
        workload = cls(args.seed, workdir)
        setup.append(time.perf_counter() - start)
    checker = Checker(workload, args.seed)
    times, rates = [], {}
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        elapsed, out = checker(k, lambda: workload.run(k))
        times.append(elapsed)
        _add_steps(rates, out)
        out = None  # so peak RSS holds one operation's output, not two
        k += 1
        if k >= workload.cycle and time.perf_counter() + statistics.median(times) > deadline:
            break
    metrics = {
        "op_s": timing.op_seconds(times, workload.cycle),
        "setup_s": import_s + statistics.median(setup),
        "peak_rss_mb": _peak_rss_mb(),
    }
    detail = {
        "op_s": timing.summarize(times),
        "op_times_s": times,
        "setup_repeats_s": setup,
        "import_s": import_s,
        "step_rates": {name: statistics.median(v) for name, v in rates.items()},
    }
    units = dict(END_TO_END)
    return checker, {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}, detail


def run_traced(cls, args, workdir):
    tracer = Tracer()
    with tracer.installed(), tracer.op("setup"):
        workload = cls(args.seed, workdir)
    checker = Checker(workload, args.seed)
    plain, traced, rates = [], [], {}

    def traced_run(k):
        def op():
            with tracer.op(k):
                return workload.run(k)

        with tracer.installed():
            return checker(k, op)

    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        # whole input cycles only, so per-op counts do not depend on run length
        cycle_start = time.perf_counter()
        for _ in range(workload.cycle):
            # alternate which side goes first; overhead = traced / untraced - 1
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                if side:
                    traced.append(traced_run(k)[0])
                else:
                    elapsed, out = checker(k, lambda: workload.run(k))
                    plain.append(elapsed)
                    _add_steps(rates, out)
                    out = None
            k += 1
        now = time.perf_counter()
        if now + (now - cycle_start) > deadline:
            break

    setup_spans = [s for s in tracer.spans if s.op == "setup"]
    op_spans = [s for s in tracer.spans if s.op != "setup"]
    by_op = {}
    for s in op_spans:
        by_op.setdefault(s.op, []).append(s)
    for op, spans in by_op.items():
        problems = layers.check_op(spans)
        if problems:
            raise RuntimeError(f"self-time arithmetic failed for op {op}: {problems[:3]}")
    overhead = timing.op_seconds(traced, workload.cycle) / timing.op_seconds(plain, workload.cycle) - 1.0
    values = layers.metrics(
        op_spans, len(by_op), setup_spans,
        {name: statistics.median(v) for name, v in rates.items()}, overhead,
    )
    units = {name: unit for name, unit, _ in layers.specs()}
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{cls.name}-seed{args.seed}.jsonl.gz"
    with gzip.open(trace_file, "wt", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.op, s.thread, s.error,
                                 s.note]) + "\n")
    detail = {
        "traced_ops": len(by_op),
        "traced_op_s": timing.op_seconds(traced, workload.cycle),
        "untraced_op_s": timing.op_seconds(plain, workload.cycle),
        "spans": len(tracer.spans),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return checker, {name: {"value": v, "unit": units[name]} for name, v in values.items()}, detail


def record_reference(workdir):
    from workloads import WORKLOADS

    out = {"seed": reference.DEFAULT_SEED}
    for name in WORKLOAD_NAMES:
        workload = WORKLOADS[name](reference.DEFAULT_SEED, workdir)
        ops = []
        for k in range(workload.cycle):
            result = workload.run(k)
            problems = workload.check(k, result)
            if problems:
                raise RuntimeError(f"{name}: output check failed while recording: {problems}")
            ops.append(workload.summary(k, result))
        out[name] = {"params": workload.params(), "ops": ops}
        print(f"recorded {name}: {len(ops)} op(s)", file=sys.stderr)
    with open(reference.PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def run_all(args):
    """Run every workload in its own process and print each metric by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        error_rate = result["failed"] / result["attempted"]
        print(f"{name:10s} error_rate {error_rate:.4g} ({result['failed']}/{result['attempted']} ops)")
        for metric, m in result["metrics"].items():
            print(f"{name:10s} {metric} {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "vineboost" / "__init__.py").is_file():
        print(f"perfbench: no vineboost sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" and not args.record_reference:
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import vineboost

    if not Path(vineboost.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported vineboost from {vineboost.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import environment
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.record_reference:
            return record_reference(workdir)
        cls = WORKLOADS[args.workload]
        if args.trace:
            checker, metrics, detail = run_traced(cls, args, workdir)
        else:
            checker, metrics, detail = run_plain(cls, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    failed = len(checker.failures)
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "error_rate": failed / checker.attempted,
        "failures": checker.failures[:5],
        "environment": environment.stamp(ROOT),
    })
    for problems in checker.failures[:5]:
        print("FAILED:", "; ".join(problems[:5]), file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": checker.attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
