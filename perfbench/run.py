#!/usr/bin/env python3
"""Benchmark of groupshare: one workload, one process, one thread, one
closed-loop client (the next operation starts when the previous ended).
``setup_s`` is timed over cold set-ups, each in a child interpreter of its
own (``setup_once.py``), run one at a time between the operations.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload nn-cli --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` makes the
separate traced run: every operation runs twice on the same input, once
untraced and once with every layer wrapped, and the run prints the
per-layer metrics with the tracing overhead (traced minus untraced time).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric by name with its unit, the workload's own metrics under the names
of its steps (``deal_s_p50``, ``break_ratio``, ...) and the provenance.
A full report, and in traced runs every span, is written to
``.bench_out/``.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "groupshare"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11  # cold set-ups timed per run; the median is reported
RSS_OPS = 16  # peak_rss_mb is read after this many operations


def cold_setup(workload: str, seed: int, size: str, scratch: Path) -> float:
    """Wall time of one cold set-up in a fresh interpreter, from its start
    to its exit: the import of groupshare and of what it imports, and the
    workload's one-time preparation."""
    scratch.mkdir()
    argv = [sys.executable, str(HERE / "setup_once.py"), workload, str(seed), size, str(scratch)]
    t0 = time.perf_counter()
    # No timeout: with one, ``wait`` polls in sleeps of up to 50 ms, which
    # rounds every sample up to that grid.
    subprocess.run(argv, check=True)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(scratch)
    return elapsed


def execute(workload, i: int, op, corrupt: bool, tracer=None):
    """Run one operation, traced when a tracer is given, and check its
    output outside the timed steps with tracing off.  Returns the step
    times and an error message or ``None``."""
    if tracer is not None:
        tracer.op_id = i
        tracer.enable()
    started = time.perf_counter()
    try:
        steps, output = workload.run(op)
    except Exception as exc:  # an operation that raises counts as failed
        return {"failed": time.perf_counter() - started}, f"operation {i}: {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.disable()
    if corrupt and i == 0:
        output = workload.corrupt(output)
    try:
        return steps, workload.check(op, output)
    except Exception as exc:  # so does one whose output cannot be checked
        return steps, f"operation {i}: checking raised {type(exc).__name__}: {exc}"


def measure(workload, seconds: float, setup_probe, corrupt: bool = False, tracer=None):
    """Run operations back to back until their timed steps add up to
    ``seconds``.  Returns the step times of each correct operation, the
    number attempted, the error messages of the rest, the peak RSS after
    ``RSS_OPS`` operations (or at the end of a shorter run) and
    ``SETUP_REPEATS`` times of ``setup_probe(i)``.

    The set-up probes run between operations, spread evenly over the
    operation time, so that they see the same machine speeds as the
    operations; a run shorter than one operation per probe takes the rest
    at its end.

    With a tracer every operation runs twice on the same input, untraced
    and traced, in alternating order; the adjacent pair sees the same
    machine speed, and ``workload.unwarm`` before each side keeps the
    second from finding caches that the first filled.  The untraced step
    times are returned first, then the traced ones."""
    plain: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    errors: list[str] = []
    busy = 0.0
    attempted = 0
    rss = None
    setups: list[float] = []
    for i, op in enumerate(workload.ops()):
        if busy >= seconds:
            break
        if i == RSS_OPS:
            rss = peak_rss_mb()
        if busy >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_probe(len(setups)))
        sides = (False,) if tracer is None else ((False, True) if i % 2 else (True, False))
        pair = {}
        for k, with_trace in enumerate(sides):
            attempted += 1
            if tracer is not None:
                workload.unwarm()
            steps, error = execute(workload, i, op, corrupt and k == 0,
                                   tracer if with_trace else None)
            busy += sum(steps.values())
            if error is None:
                pair[with_trace] = steps
            else:
                errors.append(error)
        if len(pair) == len(sides):
            plain.append(pair[False])
            if tracer is not None:
                traced.append(pair[True])
    if rss is None:
        rss = peak_rss_mb()
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(len(setups)))
    return plain, traced, attempted, errors, rss, setups


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it,
    kept within [50, 99]."""
    if n <= 0:
        return 50
    return max(50, min(99, int(100 - 1000 / n)))


def percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(samples: list[dict[str, float]], pools: dict) -> tuple[dict, dict]:
    """The gated timings of whole operations, then the median and tail of
    operations and of each step, which are reported but not gated.  Steps
    named in ``pools`` are also reported pooled under the pool's name."""
    ops = [sum(s.values()) for s in samples]
    n = len(ops)
    q = tail_percentile(n)
    # The median is not gated: the machine's speed state can last longer
    # than a run, and the median flips with it (README, last section).
    metrics = {
        "op_s_tail": (percentile(ops, q), "s"),
        "ops_per_s": (n / sum(ops) if n else 0.0, "1/s"),
    }
    groups = {name: [s[name] for s in samples] for name in sorted(samples[0] if samples else {})}
    for pool, names in pools.items():
        groups[pool] = [v for name in names for v in groups.get(name, [])]
    steps = {}
    for name, values in groups.items():
        steps[f"{name}_s_p50"] = (percentile(values, 50), "s")
        steps[f"{name}_s_tail"] = (percentile(values, tail_percentile(len(values))), "s")
    return metrics, {"op_s_p50": (percentile(ops, 50), "s"), **steps,
                     "tail": {"percentile": q, "samples": n}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, size: dict) -> dict:
    """What was measured, where: kept next to the numbers, never gated."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = sum(len(node.names) for node in tree.body if isinstance(node, ast.ImportFrom))
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "source_lines": lines,
        "exported_names": exported,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "workload_size": size,
        "setup_repeats": SETUP_REPEATS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("nn-cli", "tn-stream", "break"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke test's reduced inputs")
    parser.add_argument("--inject-wrong-output", action="store_true",
                        help="corrupt the first operation's output before it is checked")
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no groupshare sources at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    from tracer import Tracer, layer_metrics
    from workloads import SIZES, WORKLOADS, load_groupshare

    workload_cls = WORKLOADS[args.workload]
    size = SIZES[args.size][args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        def setup_probe(i: int) -> float:
            return cold_setup(args.workload, args.seed, args.size, workdir / f"setup-{i}")

        gs = load_groupshare()
        if args.trace == 0:
            workload = workload_cls(gs, args.seed, size, workdir)
            samples, _, attempted, errors, rss, setups = measure(
                workload, args.seconds, setup_probe, args.inject_wrong_output)
            timing, steps = timing_metrics(samples, workload.pools)
            results = workload.results(timing["ops_per_s"][0])
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                **timing,
                "peak_rss_mb": (rss, "MB"),
                "out_in_ratio": (results[workload.OUT_IN][0], "ratio"),
            }
            spans = layers = None
        else:
            # Set-up runs traced too, so that its calls are counted
            # (``setup_*`` in the report's layers).
            tracer = Tracer()
            tracer.install(gs)
            workload = workload_cls(gs, args.seed, size, workdir)
            tracer.disable()
            samples, traced, attempted, errors, rss, setups = measure(
                workload, args.seconds, setup_probe, args.inject_wrong_output, tracer)
            timing, steps = timing_metrics(samples, workload.pools)
            results = workload.results(timing["ops_per_s"][0])
            base = sum(sum(s.values()) for s in samples)
            busy = sum(sum(s.values()) for s in traced)
            layers = tracer.aggregate()
            metrics = {
                **layer_metrics(layers, len(traced), busy),
                "leak_advantage": (results.get("leak_advantage", (0.0,))[0], "ratio"),
                "trace.overhead_share": ((busy - base) / base if base else 0.0, "ratio"),
            }
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write(spans)

        report = {
            "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} cold set-ups"),
            **steps,
            **results,
            "peak_rss_mb": (rss, "MB", f"after the first {RSS_OPS} operations"),
            "error_rate": (len(errors) / attempted if attempted else 1.0, "ratio"),
        }
        correct = not errors and bool(samples)
        info = {
            "provenance": provenance(args, size),
            "report": report,
            "metrics": metrics,
            "layers": layers,
            "setup_samples_s": setups,
            "errors": errors[:20],
            "spans_file": str(spans.relative_to(ROOT)) if spans else None,
            "excluded": "securesum.transcript_privacy_audit: no deal or recover path calls it, "
                        "and its exhaustive enumeration would dominate any workload",
        }
        (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(info, indent=1) + "\n")

        for name, value in {**metrics, **report}.items():
            if name == "tail":
                print(f"tail percentile p{value['percentile']} over {value['samples']} operations")
            else:
                note = f"  ({value[2]})" if len(value) > 2 and value[2] else ""
                print(f"metric {name} {value[0]!r} {value[1]}{note}")
        for error in errors[:20]:
            print(f"error {error}")
        print(json.dumps({"provenance": info["provenance"]}))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": len(errors),
            "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
