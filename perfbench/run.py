"""Benchmark runner for charfactor.

    python3 perfbench/run.py --workload certify --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1 --record perfbench/results/x.json
    python3 perfbench/run.py --workload all --write-golden

Run from the root of a checkout; the package is imported from its `src`
directory and nowhere else.  The load is a closed loop: one client in one
thread, each op starting when the previous one has finished.

With `--trace 0` a run is WORKERS processes, one after another, each of
which sets up (import, inputs, warm-up op) and makes whole rounds over the
workload's ops, each round in a fresh seeded order, until its next round
would end after its share of `--seconds` (at least MIN_ROUNDS rounds).
After each round it sets up again in a fresh process.  The figures of the
processes are pooled.

Every op and every set-up is timed between two runs of a reference kernel:
fixed pure-Python work that does not touch charfactor.  On a shared host
the speed of the whole machine swings by half over seconds to minutes, and
the kernel slows with it, so an op's time divided by the kernel's time
around it stays put.  Each op's figure is the median of these ratios over
the run, scaled by REF_MS, the kernel's time on a quiet 2-vCPU x86-64 VM:
the end-to-end times read as milliseconds (or seconds) on that host.  A
change to charfactor moves them in full, since the kernel runs none of its
code.

With `--trace 1` a run makes one untraced round, then the same round under
the span tracer, then the kernel probes, and prints the per-layer metrics.
Every op passes its own exactness check and matches its golden output
before its time counts.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`; the
exit code is 0 only when every op passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import DEFAULT_SECONDS, WORKLOADS  # noqa: E402

MIN_ROUNDS = 2
# The reference kernel's time on a quiet 2-vCPU x86-64 VM; reported times
# are op (or set-up) time over kernel time, times this.
REF_MS = 0.95
SETUPS_PER_ROUND = 1
WORKERS = 3
TAIL_BEYOND = 10
DEFAULT_SEED = 1729
CHILD_TIMEOUT_S = 600
SETUP_TIMEOUT_S = 60

E2E_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    pass


def import_package():
    """Import charfactor from this checkout's `src` and return the live
    `charfactor.factorize` module."""
    if not (SRC / "charfactor" / "__init__.py").is_file():
        raise SetupError(f"no charfactor package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("charfactor")
    if Path(package.__file__).resolve().parent != (SRC / "charfactor").resolve():
        raise SetupError(f"charfactor was imported from {package.__file__}, not {SRC}")
    return importlib.import_module("charfactor.factorize")


def load_golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def output_hash(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest(hashes):
    """One hash over every op's output hash, in op-key order."""
    return output_hash("".join(f"{key} {hashes[key]}\n" for key in sorted(hashes)))


@dataclasses.dataclass
class Run:
    attempted: int = 0
    rounds: int = 0
    # op key -> the op's time over the reference kernel's, per checked run
    ratios: dict = dataclasses.field(default_factory=dict)
    failures: list = dataclasses.field(default_factory=list)
    hashes: dict = dataclasses.field(default_factory=dict)
    # set-up time over the reference kernel's, per set-up
    setup_ratios: list = dataclasses.field(default_factory=list)
    # summed time of the timed ops, and of the kernel runs around them
    wall_s: float = 0.0
    reference_s: float = 0.0


def reference_kernel():
    """Fixed pure-Python work of the kind charfactor's inner loops do:
    integer arithmetic, tuple keys and dict updates.  About 1 ms."""
    table = {}
    acc = 1
    for i in range(200):
        for j in range(15):
            key = ((i * 7 + j) % 97, j)
            table[key] = table.get(key, 0) + i * j
            acc = (acc * 31 + i) % 1000003
    return sum(table.values()) + acc


def reference_ns():
    start = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - start


def against_reference(fn):
    """Call fn() between two runs of the reference kernel; return (its
    result, its ns, the mean ns of the two kernel runs)."""
    before = reference_ns()
    start = time.perf_counter_ns()
    result = fn()
    elapsed = time.perf_counter_ns() - start
    return result, elapsed, (before + reference_ns()) / 2


def run_op(workload, fz, op, seed, golden_ops):
    """Run one op; return (elapsed ns, reference ns, output hash, problem
    or None).  The output hash is None when the op raised."""
    try:
        result, elapsed, reference = against_reference(lambda: workload.run(fz, op, seed))
    except Exception as exc:  # a failed op is counted, the run goes on
        return 0, 0, None, f"raised {type(exc).__name__}: {exc}"
    checks, problem = workload.check(op, result)
    if problem is None and checks < 1:
        problem = "ran zero checks"
    out = output_hash(workload.canonical(result))
    if problem is None and golden_ops is not None and golden_ops.get(op.key) != out:
        problem = "output differs from the golden output"
    return elapsed, reference, out, problem


def op_seed(seed, op, round_index):
    """The sample-point seed of one op in one round, drawn from the workload
    seed.  Points are independent across ops and rounds, so that one draw
    does not make every op of a run cheaper or costlier at once."""
    return random.Random(f"{seed}/{op.key}/{round_index}").getrandbits(32)


def measure(workload, fz, ops, seed, golden_ops, seconds=0, min_rounds=1, tracer=None,
            between_rounds=None):
    """Make whole rounds over the ops, each in a fresh seeded order: at
    least `min_rounds`, and more while the next round is expected to end
    within `seconds` of the start.  `between_rounds(run)` is called after
    each round and its time counts towards `seconds`."""
    rng = random.Random(seed)
    result = Run()
    start = time.perf_counter()
    while result.rounds < min_rounds or (
            (time.perf_counter() - start) * (result.rounds + 1) / result.rounds <= seconds):
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            result.attempted += 1
            sample_seed = op_seed(seed, op, result.rounds)
            if tracer is None:
                elapsed, reference, out, problem = run_op(
                    workload, fz, op, sample_seed, golden_ops)
            else:
                with tracer.span(op.key):
                    elapsed, reference, out, problem = run_op(
                        workload, fz, op, sample_seed, golden_ops)
            if out is not None and result.hashes.setdefault(op.key, out) != out:
                problem = problem or "output differs between rounds"
            if problem is None:
                result.ratios.setdefault(op.key, []).append(elapsed / reference)
                result.wall_s += elapsed / 1e9
                result.reference_s += reference / 1e9
            else:
                result.failures.append(f"{op.key}: {problem}")
        result.rounds += 1
        if between_rounds is not None:
            between_rounds(result)
    return result


def set_up(workload, golden_ops):
    """Import the package, build the inputs and run the warm-up op (the
    first op in grid order, at fixed sample points so that set-up does not
    depend on the workload seed); return (set-up time over the reference
    kernel's, factorize module, ops)."""
    def steps():
        fz = import_package()
        ops = workload.ops(importlib.import_module("charfactor.weights"))
        if not ops:
            raise SetupError(f"workload {workload.name} has no ops")
        _, _, _, problem = run_op(workload, fz, ops[0], DEFAULT_SEED, golden_ops)
        if problem is not None:
            raise SetupError(f"warm-up op {ops[0].key} failed: {problem}")
        return fz, ops

    reference_kernel()  # its first run in a process takes twice as long
    (fz, ops), elapsed, reference = against_reference(steps)
    return elapsed / reference, fz, ops


def tail(times_ms):
    """Wall time at the highest percentile with at least TAIL_BEYOND ops
    beyond it (nearest rank); returns (value, percentile)."""
    ordered = sorted(times_ms)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        raise ValueError(f"{count} ops leave no percentile with {TAIL_BEYOND} beyond it")
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def source_hash():
    h = hashlib.sha256()
    for path in sorted((SRC / "charfactor").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_record(args, load):
    return {"git_revision": git_revision(), "source_sha256": source_hash(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_at_start": load, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def print_metric(name, value, unit, note=""):
    print(f"  {name:<52} {value:>14.6g} {unit}{'  ' + note if note else ''}")


def run_child(workload, options, timeout):
    """Run this script for the workload in a fresh interpreter, one at a
    time; return the JSON object on the last line of its output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name, *options]
    what = f"{workload.name} {' '.join(options)}"
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SetupError(f"{what} took over {timeout} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SetupError(f"{what} failed: {done.stderr.strip()}")
    return json.loads(lines[-1])


def cold_set_up(workload):
    """Set up in a fresh interpreter, so that the import is cold; return the
    set-up time over the reference kernel's, as that process measured it."""
    return run_child(workload, ["--set-up-only"], SETUP_TIMEOUT_S)["setup_ratio"]


def worker(workload, args, golden_ops):
    """Measure one share of an end-to-end run in this process: set up, then
    rounds for `--seconds` / WORKERS, with a cold set-up after each round;
    print the raw figures as JSON."""
    ratio, fz, ops = set_up(workload, golden_ops)

    def set_up_again(run):
        run.setup_ratios.extend(cold_set_up(workload) for _ in range(SETUPS_PER_ROUND))

    run = measure(workload, fz, ops, f"{args.seed}/{args.worker}", golden_ops,
                  args.seconds / WORKERS, MIN_ROUNDS, between_rounds=set_up_again)
    run.setup_ratios.insert(0, ratio)
    print(json.dumps({"run": dataclasses.asdict(run), "ops": len(ops),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
    return 0


def pool(parts):
    """Merge the Runs of several processes into one; an op whose output
    differs between processes fails."""
    run = Run()
    for part in parts:
        run.attempted += part.attempted
        run.rounds += part.rounds
        for key, ratios in part.ratios.items():
            run.ratios.setdefault(key, []).extend(ratios)
        run.failures.extend(part.failures)
        for key, out in part.hashes.items():
            if run.hashes.setdefault(key, out) != out:
                run.failures.append(f"{key}: output differs between processes")
        run.setup_ratios.extend(part.setup_ratios)
        run.wall_s += part.wall_s
        run.reference_s += part.reference_s
    return run


def end_to_end(workload, args, golden_ops):
    """Run WORKERS measuring processes one after another and pool their
    figures, so that what differs between two processes of the same code
    (memory layout, hash seeds) is averaged, not sampled once."""
    parts = [run_child(workload, ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--worker", str(index)], CHILD_TIMEOUT_S)
             for index in range(WORKERS)]
    run = pool(Run(**part["run"]) for part in parts)
    op_count = parts[0]["ops"]
    peak_rss_mb = max(part["peak_rss_mb"] for part in parts)
    op_ms = [statistics.median(run.ratios[key]) * REF_MS for key in sorted(run.ratios)]
    notes = {}
    metrics = {"setup_s": statistics.median(run.setup_ratios) * REF_MS / 1e3,
               "peak_rss_mb": peak_rss_mb}
    notes["setup_s"] = f"median of {len(run.setup_ratios)} set-ups in fresh processes"
    if len(op_ms) > TAIL_BEYOND:
        metrics["ops_per_s"] = len(op_ms) / (sum(op_ms) / 1e3)
        metrics["op_p50_ms"] = statistics.median(op_ms)
        metrics["op_tail_ms"], pct = tail(op_ms)
        notes["ops_per_s"] = "one round at every op's median time"
        notes["op_tail_ms"] = f"p{pct:.1f}, {TAIL_BEYOND} ops beyond, n={len(op_ms)}"
    checked = run.attempted - len(run.failures)
    host_ms = run.reference_s / checked * 1e3 if checked else 0.0
    print(f"workload {workload.name}: seed {args.seed}, {run.rounds} rounds of {op_count} ops "
          f"in {WORKERS} processes, "
          f"{run.attempted} attempted, {len(run.failures)} failed, {run.wall_s:.2f} s timed; "
          f"each op's figure is its median over the rounds, in reference-kernel time "
          f"scaled by {REF_MS} ms (the kernel took {host_ms:.3f} ms on average here)")
    for name, unit in E2E_UNITS.items():
        if name in metrics:
            print_metric(name, metrics[name], unit, notes.get(name, ""))
    print_metric("failed_ratio", len(run.failures) / run.attempted, "fraction",
                 f"{len(run.failures)} of {run.attempted}")
    counts = {"ops_per_round": op_count, "rounds": run.rounds, "attempted": run.attempted,
              "checked": checked, "failed": len(run.failures),
              "setups": len(run.setup_ratios)}
    return run, metrics, counts


def traced(workload, args, golden_ops):
    _, fz, ops = set_up(workload, golden_ops)
    problems, unfired = tracing.self_check()
    if problems:
        raise SetupError("tracer self-check failed: " + "; ".join(problems))
    if unfired:
        print(f"  tracer self-check: not reached on its tiny instance: {', '.join(unfired)}")
    plain = measure(workload, fz, ops, args.seed, golden_ops)
    tracer = tracing.Tracer()
    with tracer.installed():
        run = measure(workload, fz, ops, args.seed, golden_ops, tracer=tracer)
    aggregated = tracer.aggregate()
    metrics = tracer.metrics(aggregated)
    metrics["trace.overhead_ratio"] = run.wall_s / plain.wall_s
    metrics.update(probes.run_probes())
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    written = tracer.write_spans(spans_path)
    print(f"workload {workload.name}: seed {args.seed}, one untraced and one traced round "
          f"of {len(ops)} ops, traced {run.wall_s:.2f} s, untraced {plain.wall_s:.2f} s; "
          f"{len(tracer.span_name)} spans, {written} written to {spans_path.relative_to(ROOT)}")
    print(f"  peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    wall_ms = run.wall_s * 1e3
    numerator_ms = aggregated[0].get("characters.twisted_numerator", {}).get("total_ns", 0) / 1e6
    for name, value in (("factorize.sign_via_coxeter.incl_ms",
                         metrics["factorize.sign_via_coxeter.incl_ms"]),
                        ("characters.twisted_numerator.self_ms",
                         metrics["characters.twisted_numerator.self_ms"]),
                        ("characters.twisted_numerator, self + children", numerator_ms)):
        print(f"  share of traced wall time: {name} {value / wall_ms:.1%}")
    for name in per_layer_names():
        print_metric(name, metrics[name], unit_of(name))
    failures = plain.failures + run.failures
    attempted = plain.attempted + run.attempted
    counts = {"ops_per_round": len(ops), "rounds": 2, "attempted": attempted,
              "checked": attempted - len(failures), "failed": len(failures),
              "spans": len(tracer.span_name)}
    merged = Run(attempted=attempted, failures=failures, hashes=run.hashes)
    return merged, metrics, counts


def per_layer_names():
    return tracing.metric_names() + ["trace.overhead_ratio"] + probes.metric_names()


def unit_of(name):
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(".us"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_one(args):
    workload = WORKLOADS[args.workload]
    load = os.getloadavg()
    golden = load_golden()
    if workload.name not in golden:
        raise SetupError(f"no golden outputs recorded for {workload.name}")
    golden_ops = golden[workload.name]["ops"]
    if args.worker is not None:
        return worker(workload, args, golden_ops)
    run, metrics, counts = (traced if args.trace else end_to_end)(workload, args, golden_ops)
    for failure in run.failures[:20]:
        print(f"  FAILED {failure}")
    got = digest(run.hashes)
    digest_ok = got == golden[workload.name]["digest"]
    print(f"  output digest {got[:16]} {'matches' if digest_ok else 'DIFFERS FROM'} "
          f"the golden digest")
    record = run_record(args, load)
    record["counts"] = counts
    print("record " + json.dumps(record, sort_keys=True))
    units = {} if args.trace else E2E_UNITS
    metrics_out = {name: {"value": value, "unit": units.get(name) or unit_of(name)}
                   for name, value in metrics.items()}
    failed = len(run.failures)
    expected = per_layer_names() if args.trace else E2E_UNITS
    correct = (failed == 0 and digest_ok and counts["checked"] > 0
               and all(name in metrics for name in expected))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics_out}, sort_keys=True))
    return 0 if correct else 1


def run_all(args):
    """Run every workload in its own process, one after another."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"workload {name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            status = 1
            continue
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
        if lines and lines[-1].startswith("{"):
            record = next((json.loads(line[len("record "):]) for line in lines
                           if line.startswith("record ")), None)
            results[name] = {"result": json.loads(lines[-1]), "record": record}
    if len(results) < len(WORKLOADS):
        print(f"error: {len(WORKLOADS) - len(results)} workloads gave no result", file=sys.stderr)
        return 1
    summary = {"correct": status == 0,
               "attempted": sum(r["result"]["attempted"] for r in results.values()),
               "failed": sum(r["result"]["failed"] for r in results.values()),
               "metrics": {f"{name}.{metric}": value
                           for name, r in results.items()
                           for metric, value in r["result"]["metrics"].items()}}
    if args.record:
        with open(args.record, "w") as handle:
            json.dump({"workloads": results}, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def set_up_only(name):
    golden_ops = load_golden()[name]["ops"]
    ratio, _, _ = set_up(WORKLOADS[name], golden_ops)
    print(json.dumps({"setup_ratio": ratio}))
    return 0


def write_golden(names):
    """Record every op's output hash, one pass in grid order with the
    default seed, as the golden outputs of the named workloads."""
    golden = load_golden() if GOLDEN.exists() else {}
    fz = import_package()
    for name in names:
        workload = WORKLOADS[name]
        hashes = {}
        for op in workload.ops(importlib.import_module("charfactor.weights")):
            _, _, out, problem = run_op(workload, fz, op, DEFAULT_SEED, None)
            if problem is not None:
                raise SetupError(f"{name} {op.key}: {problem}")
            hashes[op.key] = out
        golden[name] = {"digest": digest(hashes), "ops": hashes}
        print(f"{name}: {len(hashes)} ops, digest {golden[name]['digest']}")
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="with --workload all, write every result and run record here")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the golden outputs instead of measuring")
    parser.add_argument("--worker", type=int, default=None,
                        help="measure one share of an end-to-end run and print it as JSON")
    parser.add_argument("--set-up-only", action="store_true",
                        help="set up once and print its time over the reference kernel's")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.set_up_only and args.workload == "all":
        parser.error("--set-up-only takes one workload")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.set_up_only:
            return set_up_only(args.workload)
        if args.write_golden:
            return write_golden(sorted(WORKLOADS) if args.workload == "all" else [args.workload])
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (SetupError, OSError, probes.ProbeCheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
