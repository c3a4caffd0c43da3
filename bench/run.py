"""Benchmark of the causerepair CLI: end-to-end metrics, or a per-layer trace.

Usage, from the root of a source checkout:

    python3 bench/run.py                          # every workload, end to end
    python3 bench/run.py --workload explain-small --seed 3 --seconds 30 --trace 1

One client drives the real CLI in-process through ``cli.execute(argv)``
in a closed loop: the next invocation starts when the previous one has
returned.  A run generates its input files from ``--seed`` under
``.bench_work/``, self-tests the engine against the brute-force oracle on
oracle-sized inputs from the same generators (in a child process, so the
oracle's memory stays out of ``peak_rss_mb``), runs one verification pass
whose results are checked (and, for the default seed, compared with
committed digests), then repeats shuffled passes of the workload's script
for ``--seconds``.  Every later output must repeat the verified one byte
for byte.  ``setup_s`` is timed in fresh processes, three before the loop
and one after each pass, so its samples span the run like the others.

With ``--trace 1`` the run alternates untraced passes with traced passes
of the same shuffled order, the traced ones with span wrappers installed
(see ``tracing.py``).  The per-layer metrics come from the traced passes;
``trace.overhead_ratio`` is their summed self time over the untraced wall
time of the same invocations, and the run is marked incorrect above
``TRACE_OVERHEAD_MAX``.  Without ``--workload`` every workload runs in a
child process of its own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
import tracing
from workloads import WORKLOADS, small_case_agrees

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = Path(__file__).resolve().parent / "expected_digests.json"

DEFAULT_SEED = 0
SETUP_FIRST = 3  # fresh-process set-ups before the loop; one more after each pass
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
TRACE_OVERHEAD_MAX = 1.5  # traced self times over the untraced wall time of the same invocations

# Fresh-process set-up: import the CLI, then parse each input file once.
# The calibration loop runs first, in the same process, to scale the time.
SETUP_CHILD = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[2])
import calibration
speed = sorted(calibration.loop_seconds() for _ in range(5))[2]
del sys.path[0]
start = perf_counter()
sys.path.insert(0, sys.argv[1])
import causerepair.cli
from causerepair import parsing
parse = {"instance": parsing.parse_instance, "query": parsing.single_query,
         "constraints": parsing.constraint_set}
for role, path in zip(sys.argv[3::2], sys.argv[4::2]):
    with open(path, encoding="utf-8") as handle:
        parse[role](handle.read())
print(perf_counter() - start, speed)
"""


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def result_digest(result) -> str:
    """Digest of a report's ``result`` object; the rest holds file paths."""
    return _sha(json.dumps(result, sort_keys=True, separators=(",", ":")))


def setup_seconds(plan) -> tuple[float, float]:
    """Wall time of one fresh-process set-up, and the calibration loop's
    time in that process."""
    argv = [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(Path(__file__).resolve().parent)]
    for role, path in plan:
        argv += [role, str(path)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    wall, speed = map(float, done.stdout.split())
    return wall, speed


def self_test(cli, small, name: str, seed: int, work: Path) -> list[str]:
    """Engine results that disagree with the oracle on small inputs."""
    work.mkdir(parents=True)
    oracle, bad = {}, []
    for engine_argv, oracle_argv, kind in small(random.Random(f"{name}:small:{seed}"), work):
        code_e, out_e, err_e = cli.execute(engine_argv)
        if tuple(oracle_argv) not in oracle:
            oracle[tuple(oracle_argv)] = cli.execute(oracle_argv)
        code_o, out_o, err_o = oracle[tuple(oracle_argv)]
        if code_e or code_o or not small_case_agrees(
                kind, json.loads(out_e)["result"], json.loads(out_o)["result"]):
            bad.append(" ".join(Path(a).name if "/" in a else a for a in engine_argv) + " " + (err_e or err_o))
    return bad


def verification_pass(cli, name: str, seed: int, pool, verify):
    """Run the script once, check every result, and record the outputs
    later passes must repeat.  Returns (output digests, wrong labels)."""
    results, outputs, digests, wrong = {}, {}, {}, set()
    for inv in pool.script:
        code, out, err = cli.execute(inv.argv)
        if code:
            wrong.add(inv.label)
            print(f"{inv.label}: exit {code}: {err.strip()}", file=sys.stderr)
            continue
        results[inv.label] = json.loads(out)["result"]
        outputs[inv.label] = _sha(out)
        digests[inv.label] = result_digest(results[inv.label])
    if not wrong:
        wrong.update(verify(pool, results))
    if seed == DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(name, {})
        wrong.update(label for label in digests if expected.get(label) != digests[label])
    out_dir = WORK / "digests"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}-seed{seed}.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for label in sorted(wrong):
        print(f"wrong result: {label}", file=sys.stderr)
    return outputs, wrong


def run_pass(cli, order, outputs, wrong, tracer=None, speed=None):
    """One pass of the script in ``order``.  Returns the invocation
    latencies and the number that failed.  With ``speed``, the
    calibration loop is timed before each invocation and appended to it."""
    latencies, failed = [], 0
    for inv in order:
        if tracer is not None:
            tracer.invocation += 1
        if speed is not None:
            speed.append(calibration.loop_seconds())
        start = perf_counter()
        code, out, _ = cli.execute(inv.argv)
        latencies.append(perf_counter() - start)
        if code or inv.label in wrong or _sha(out) != outputs[inv.label]:
            failed += 1
    return latencies, failed


def measure(cli, script, rng, seconds, outputs, wrong, after_pass):
    """Closed loop of whole shuffled passes until ``seconds`` have passed.
    Returns the wall-clock latencies, the same latencies at reference
    speed, each pass's host slowdown and the number that failed."""
    latencies, scaled, slowdowns, failed = [], [], [], 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(latencies) <= TAIL_BEYOND:
        order = list(script)
        rng.shuffle(order)
        speed = []
        lat, lost = run_pass(cli, order, outputs, wrong, speed=speed)
        slowdowns.append(statistics.median(speed) / calibration.REFERENCE_S)
        latencies += lat
        scaled += [x / slowdowns[-1] for x in lat]
        failed += lost
        after_pass()
    return latencies, scaled, slowdowns, failed


def latency_metrics(samples) -> dict:
    ordered = sorted(samples)
    return {
        "ops_per_s": len(ordered) / sum(ordered),
        "latency_p50_s": statistics.median(ordered),
        "latency_tail_s": ordered[len(ordered) - 1 - TAIL_BEYOND],
    }


def measure_traced(cli, script, rng, seconds, outputs, wrong):
    """Pairs of passes over one shuffled order, one untraced and one traced,
    alternating which goes first, so both see the same invocations under
    the same host conditions.  Returns the tracer, the untraced and traced
    latencies and the number that failed."""
    tracer = tracing.Tracer()
    plain, traced, failed = [], [], 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not traced:
        order = list(script)
        rng.shuffle(order)
        for with_spans in (False, True) if len(traced) % (2 * len(script)) == 0 else (True, False):
            if with_spans:
                tracer.install()
                try:
                    lat, lost = run_pass(cli, order, outputs, wrong, tracer)
                finally:
                    tracer.uninstall()
                traced += lat
            else:
                tracing.assert_clean()
                lat, lost = run_pass(cli, order, outputs, wrong)
                plain += lat
            failed += lost
    return tracer, plain, traced, failed


def layer_metrics(summary: dict, ops: int, overhead: float) -> dict:
    def total(prefix, key="self_s"):
        return sum(e.get(key, 0) for n, e in summary.items() if n == prefix or n.startswith(prefix + "."))

    def per_op(prefix, key="self_s"):
        return total(prefix, key) / ops

    sets_in = total("hitting.minimal_sets", "sets_in")
    m = {f"{layer}.self_s": (per_op(layer), "s/op") for layer in tracing.LAYERS}
    m.update({
        "parsing.facts": (per_op("parsing", "facts"), "count/op"),
        "queries.witnesses.self_s": (per_op("queries.witnesses"), "s/op"),
        "queries.witnesses.calls": (per_op("queries.witnesses", "calls"), "count/op"),
        "queries.witnesses.images": (per_op("queries.witnesses", "images"), "count/op"),
        "queries.eval_boolean.self_s": (per_op("queries.eval_boolean"), "s/op"),
        "queries.eval_boolean.calls": (per_op("queries.eval_boolean", "calls"), "count/op"),
        "hitting.support_sets.calls": (per_op("hitting.support_sets", "calls"), "count/op"),
        "hitting.support_sets.edges": (per_op("hitting.support_sets", "edges"), "count/op"),
        "hitting.minimal_sets.self_s": (per_op("hitting.minimal_sets"), "s/op"),
        "hitting.minimal_sets.kept_ratio": (
            total("hitting.minimal_sets", "sets_out") / sets_in if sets_in else 0.0, "ratio"),
        "hitting.enumerate.self_s": (per_op("hitting.enumerate_minimal_hitting_sets"), "s/op"),
        "hitting.enumerate.sets": (per_op("hitting.enumerate_minimal_hitting_sets", "sets"), "count/op"),
        "hitting.minimum.self_s": (per_op("hitting.minimum_hitting_set_containing"), "s/op"),
        "hitting.minimum.calls": (per_op("hitting.minimum_hitting_set_containing", "calls"), "count/op"),
        "cli.output_bytes": (per_op("cli.execute", "output_bytes"), "B/op"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return m


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    build, verify, _ = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    work = WORK / f"{name}-seed{seed}-run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    notes, trace_ok = [], True
    try:
        pool = build(rng, work)
        mismatches = self_test_in_child(name, seed)
        notes += [f"self-test disagrees with the oracle: {m}" for m in mismatches]
        setup = []

        def sample_setup():
            setup.append(setup_seconds(pool.parse_plan))

        if not trace:
            for _ in range(SETUP_FIRST):
                sample_setup()
        outputs, wrong = verification_pass(cli, name, seed, pool, verify)
        attempted, failed = len(pool.script), len(wrong)
        if trace:
            tracer, plain, traced, lost = measure_traced(cli, pool.script, rng, seconds, outputs, wrong)
            attempted += len(plain) + len(traced)
            failed += lost
            summary = tracer.summary()
            total_self = sum(e["self_s"] for e in summary.values())
            overhead = total_self / sum(plain)
            if overhead > TRACE_OVERHEAD_MAX:
                trace_ok = False
                notes.append(f"traced self times sum to {overhead:.3f}x the untraced wall time"
                             f" of the same invocations; the limit is {TRACE_OVERHEAD_MAX}")
            metrics = layer_metrics(summary, len(traced), overhead)
            notes.append(f"{len(traced)} traced and {len(plain)} untraced invocations in alternating passes;"
                         f" self times sum to {overhead:.4f}x the untraced wall time")
            ranked = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
            notes += [f"  {n:45s} {e['self_s'] / total_self:7.2%}  calls {e['calls']}" for n, e in ranked[:12]]
        else:
            tracing.assert_clean()
            samples, scaled, slowdowns, lost = measure(cli, pool.script, rng, seconds, outputs, wrong, sample_setup)
            attempted += len(samples)
            failed += lost
            n = len(samples)
            # Times at reference speed: each invocation is scaled by its
            # pass's host slowdown, set-up by that of the set-up processes.
            setup_wall = statistics.median(w for w, _ in setup)
            setup_slowdown = statistics.median(k for _, k in setup) / calibration.REFERENCE_S
            units = {"ops_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s"}
            metrics = {k: (v, units[k]) for k, v in latency_metrics(scaled).items()}
            metrics["setup_s"] = (setup_wall / setup_slowdown, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            wall = latency_metrics(samples) | {"setup_s": setup_wall}
            notes.append(f"host slowdown: median {statistics.median(slowdowns):.4f} over {len(slowdowns)} passes"
                         f" (range {min(slowdowns):.3f}-{max(slowdowns):.3f}), {setup_slowdown:.4f} in set-up;"
                         " wall-clock values: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
            notes.append(f"latency_tail_s is p{100 * (n - TAIL_BEYOND) / n:.2f} of {n} samples ({TAIL_BEYOND} beyond it);"
                         f" {n // len(pool.script)} passes of {len(pool.script)} invocations;"
                         f" setup_s is the median of {len(setup)} fresh processes")
        notes.append(f"fail_rate {failed / attempted:.6g} ({failed}/{attempted})")
        return {
            "correct": failed == 0 and not mismatches and trace_ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "notes": notes,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def child(args: list[str]) -> tuple[list[str], dict]:
    """Run this script in a fresh process; returns its text lines and the
    JSON object on its last line."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve())] + args,
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"error: {' '.join(args)} exited {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def self_test_in_child(name: str, seed: int) -> list[str]:
    """The self-test runs in its own process, so the oracle's memory does
    not count toward this run's ``peak_rss_mb``."""
    return child(["--self-test", "--workload", name, "--seed", str(seed)])[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "causerepair" / "cli.py").is_file():
        print(f"error: no causerepair sources under {SRC}", file=sys.stderr)
        return 2
    if not args.workload:
        # Each workload in its own process, so none inherits another's peak memory.
        reports = {}
        for name in WORKLOADS:
            lines, reports[name] = child(["--workload", name, "--seed", str(args.seed),
                                          "--seconds", str(args.seconds), "--trace", str(args.trace)])
            print("\n".join(lines), flush=True)
        print(json.dumps({
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{n}.{k}": v for n, r in reports.items() for k, v in r["metrics"].items()},
        }))
        return 0
    sys.path.insert(0, str(SRC))
    from causerepair import cli

    if args.self_test:
        work = WORK / f"{args.workload}-seed{args.seed}-small"
        shutil.rmtree(work, ignore_errors=True)
        try:
            print(json.dumps(self_test(cli, WORKLOADS[args.workload][2], args.workload, args.seed, work)))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    report = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"== {args.workload} (seed {args.seed}, trace {args.trace})")
    for metric, entry in report["metrics"].items():
        print(f"{metric:34s} {entry['value']:.6g} {entry['unit']}")
    for note in report.pop("notes"):
        print(note)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
