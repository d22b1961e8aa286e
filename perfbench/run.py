"""qnswitch benchmark: one workload, one seed, one closed-loop client.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-n4-warm --seed 1 --seconds 20 --trace 0

Workloads: sweep-n4-warm, sweep-n2-plane, cold-holevo-n4, verify (see
perfbench/NOTES.md for why each exists). The program runs from ./src; the
benchmark drives it only through ``qnswitch.cli.main`` or
``python -m qnswitch.cli``, one op at a time, with BLAS pinned to one thread
and QNSWITCH_WORKERS unset. Inputs come from --seed alone.

With --trace 0 the last line of output is a JSON object whose metrics are
the end-to-end metrics: setup_s, op_p50_ms, op_tail_ms, points_per_s and
peak_rss_mb (fail_frac is printed above it and carried by ``failed`` /
``attempted``). With --trace 1 they are the per-layer metrics of a traced
run, in which even ops are traced and odd ops are not. Every output is
checked (perfbench/check.py); an op that raises, exits nonzero or prints a
wrong result counts as failed.

Every reported time is a wall time scaled by the host's speed at that
moment, read from a fixed reference loop timed around it (see worker.py);
the unscaled figures are printed next to them.

--tiny and --wrong-reference exist for perfbench/selftest.py: the first
shrinks every input, the second shifts every reference value so that the
check must fail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import EIGVALSH, TARGETS  # noqa: E402
from worker import REFERENCE_NOMINAL_S  # noqa: E402
from workloads import WORKLOADS, make_op  # noqa: E402

SETUP_REPS = 5
RUN_LIMIT_S = 170  # the whole run, set-up probes included
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Ops per run whose output gets one row recomputed by brute force. An N = 4
# row costs about 0.5 s of brute force, an N = 2 row a few ms.
ORACLE_SAMPLES = {"sweep-n4-warm": 3, "sweep-n2-plane": 10, "cold-holevo-n4": 3, "verify": 1}

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Every wrapped layer's calls and self time per op, except the calls of
# cli.main and the verify checks, which are one per command by definition.
PER_LAYER = {}
for _name in list(TARGETS) + [EIGVALSH]:
    if not _name.startswith(("cli.", "verify.")):
        PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_ms"] = "ms"
PER_LAYER.update({
    "switch.contract_pair.distinct_keys": "count",
    "holevo.eigvalsh.rows": "count",
    "cli.csv_bytes": "B",
    "op.points": "count",
    "op.traced_ms": "ms",
    "op.untraced_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
})

# What the traced run must show for each workload to have been chosen
# rightly: (statement, layer self times whose share of the op is reported,
# share that must be exceeded; or a list of calls that must be zero).
RATIONALE = {
    "cold-holevo-n4": ("order enumeration and contraction take most of the op",
                       ["symgroup.enumerate_orders", "symgroup.zero_subsets",
                        "switch.contract_pair"], 0.5),
    "sweep-n4-warm": ("assemble_blocks self time takes most of the op",
                      ["switch.assemble_blocks"], 0.5),
    "verify": ("kraus_sum_output takes most of the op", ["switch.kraus_sum_output"], 0.5),
    "sweep-n2-plane": ("neither contraction nor assembly is called",
                       ["switch.contract_pair", "switch.assemble_blocks"], None),
}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("QNSWITCH_WORKERS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


def environment(root: Path, args) -> dict:
    import numpy

    describe = ""
    if (root / ".git").exists():
        try:
            describe = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--tags"], cwd=root,
                capture_output=True, text=True, timeout=30,
            ).stdout.strip()
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "worker_cpu": max(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_describe": describe or "unavailable (not a git checkout)",
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "QNSWITCH_WORKERS": "unset",
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "trace": args.trace,
        "client": "closed loop, 1 client, 1 process at a time",
    }


def run_worker(cfg: dict, env: dict, root: Path, deadline: float) -> dict:
    """Run one worker to completion; kill it and its children at the deadline."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                            env=env, cwd=root, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker ran past the {RUN_LIMIT_S} s limit") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    with open(cfg["result"], encoding="utf-8") as handle:
        return json.load(handle)


def check_ops(args, ops: list[dict], out_dir: str) -> list[str]:
    """One failure message per failed op (empty when all are right)."""
    from check import check_op

    rng = random.Random(f"check:{args.workload}:{args.seed}")
    count = min(ORACLE_SAMPLES[args.workload], len(ops))
    sampled = set(rng.sample(range(len(ops)), count))
    failures = []
    for index, record in enumerate(ops):
        op = make_op(args.workload, args.seed, index, out_dir, args.tiny)
        if record["error"] or any(record["codes"]):
            failures.append(f"op {index}: {record['error'] or record['codes']}")
            continue
        csv_text = None
        if op.csv_path is not None and os.path.exists(op.csv_path):
            csv_text = Path(op.csv_path).read_text(encoding="utf-8")
        record["csv_bytes"] = len((csv_text or "").encode()) + sum(
            len(text.encode()) for argv, text in zip(op.commands, record["outputs"])
            if argv[0] in ("holevo", "table1")
        )
        record["points"] = len(op.points)
        sample = rng.randrange(len(op.points)) if index in sampled else None
        try:
            check_op(op, record["outputs"], csv_text, sample, args.wrong_reference)
        except Exception as exc:  # any malformed output fails the op
            failures.append(f"op {index}: {type(exc).__name__}: {exc}")
    return failures


def speed(ref_s: list[float]) -> float:
    """Host speed around one timing, relative to the uncontended host.

    Every time the benchmark reports is wall time multiplied by this.
    """
    return REFERENCE_NOMINAL_S / statistics.fmean(ref_s)


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond). With too few samples it
    falls back to the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def end_to_end(args, result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    ops = result["ops"]
    raw = [op["wall_s"] for op in ops]
    walls = [op["wall_s"] * speed(op["ref_s"]) for op in ops]
    points = sum(op.get("points", 0) for op in ops)
    tail_s, level, beyond = tail(walls)
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(walls) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "points_per_s": points / sum(walls),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_p50_ms": f"{len(walls)} ops; unscaled {statistics.median(raw) * 1e3:.1f} ms",
        "op_tail_ms": f"p{level:.1f}, {beyond} of {len(walls)} ops beyond; "
                      f"unscaled {tail(raw)[0] * 1e3:.1f} ms",
        "points_per_s": f"{points} points in {sum(walls):.3f} s of op time; "
                        f"unscaled {points / sum(raw):.1f}/s",
        "peak_rss_mb": "getrusage max of the op process"
        + (" and its children" if not WORKLOADS[args.workload] else ""),
    }
    lines = [f"  {name:<13} {values[name]:>12.4f} {END_TO_END[name]:<4} ({notes[name]})"
             for name in END_TO_END]
    speeds = [speed(op["ref_s"]) for op in ops]
    lines.append(f"  host speed    median {statistics.median(speeds):.3f}, range "
                 f"{min(speeds):.3f}-{max(speeds):.3f} of uncontended (times above are scaled by it)")
    return values, lines


def per_layer(args, result: dict) -> tuple[dict, list[str]]:
    ops = result["ops"]
    traced = [op for op in ops if op["traced"] and op.get("layers")]
    plain = [op["wall_s"] * speed(op["ref_s"]) for op in ops if not op["traced"]]
    if not traced:
        raise RuntimeError("no traced op completed")

    def median_of(get):
        return statistics.median(get(op) for op in traced)

    # Counts are those of op 0, which every traced run traces, so they
    # repeat exactly for a seed; times are medians over the traced ops.
    first = traced[0]
    values = {}
    for name in list(TARGETS) + [EIGVALSH]:
        values[f"{name}.calls"] = first["layers"]["calls"].get(name, 0)
        values[f"{name}.self_ms"] = median_of(
            lambda op: op["layers"]["self_ms"].get(name, 0.0) * speed(op["ref_s"]))
    for name in ("switch.contract_pair.distinct_keys", "holevo.eigvalsh.rows"):
        values[name] = first["layers"]["counts"].get(name, 0)
    values["cli.csv_bytes"] = first.get("csv_bytes", 0)
    values["op.points"] = first.get("points", 0)
    values["op.traced_ms"] = median_of(lambda op: op["wall_s"] * speed(op["ref_s"])) * 1e3
    values["op.untraced_ms"] = statistics.median(plain) * 1e3
    values["trace.overhead_ms"] = values["op.traced_ms"] - values["op.untraced_ms"]
    values["trace.overhead_pct"] = 100.0 * values["trace.overhead_ms"] / values["op.untraced_ms"]

    # Self times leave out the wrappers' own bookkeeping, so shares are taken
    # of the untraced op.
    op_ms = values["op.untraced_ms"]
    lines = [f"  traced ops {len(traced)}, untraced ops {len(plain)}; "
             f"op {values['op.traced_ms']:.3f} ms traced, {op_ms:.3f} ms untraced, "
             f"tracing overhead {values['trace.overhead_ms']:+.3f} ms "
             f"({values['trace.overhead_pct']:+.1f}%)"]
    layers = sorted(TARGETS, key=lambda n: -values[f"{n}.self_ms"]) + [EIGVALSH]
    lines.append(f"  {'layer':<40} {'calls':>9} {'self ms':>10} {'share':>7}")
    for name in layers:
        calls, self_ms = values[f"{name}.calls"], values[f"{name}.self_ms"]
        if calls:
            lines.append(f"  {name:<40} {calls:>9} {self_ms:>10.3f} {self_ms / op_ms:>7.1%}")
    lines.append(f"  counts: distinct contract_pair keys "
                 f"{values['switch.contract_pair.distinct_keys']} of "
                 f"{values['switch.contract_pair.calls']} calls; eigvalsh rows "
                 f"{values['holevo.eigvalsh.rows']}; points {values['op.points']}; "
                 f"csv bytes {values['cli.csv_bytes']}")
    statement, names, share = RATIONALE[args.workload]
    if share is None:
        holds = all(values[f"{n}.calls"] == 0 for n in names)
        lines.append(f"  rationale: {statement}: {'holds' if holds else 'DOES NOT HOLD'}")
    else:
        got = sum(values[f"{n}.self_ms"] for n in names) / op_ms
        verdict = "holds" if got > share else "DOES NOT HOLD"
        lines.append(f"  rationale: {statement}: {' + '.join(names)} self time is "
                     f"{got:.1%} of the untraced op, {verdict}")
    return values, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink inputs (self-test)")
    parser.add_argument("--wrong-reference", type=float, default=0.0, metavar="BIAS",
                        help="add BIAS to every reference value (self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qnswitch" / "cli.py").is_file():
        print("error: ./src/qnswitch not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = child_env(root)
    state = root / ".perfbench"
    work = state / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans = state / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans.unlink(missing_ok=True)

    def config(setup_only: bool, tag: str) -> dict:
        return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "tiny": args.tiny, "setup_only": setup_only,
                "out_dir": str(work), "spans": str(spans),
                "result": str(work / f"result-{tag}.json")}

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        reps = 2 if args.tiny else SETUP_REPS
        probes = [run_worker(config(True, f"setup{i}"), env, root, deadline)
                  for i in range(reps - 1)]
        result = run_worker(config(False, "main"), env, root, deadline)
        setups = [r["setup_s"] * speed(r["setup_ref_s"]) for r in probes + [result]]
        failures = check_ops(args, result["ops"], str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(result["ops"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    if args.trace:
        metrics, lines = per_layer(args, result)
        units = PER_LAYER
        lines.append(f"  spans: {spans.relative_to(root)}")
    else:
        metrics, lines = end_to_end(args, result, setups)
        units = END_TO_END
    print("\n".join(lines))
    print(f"  {'fail_frac':<13} {len(failures) / attempted:>12.4f} "
          f"({len(failures)} of {attempted} ops failed)")
    for message in failures[:5]:
        print(f"  FAILED {message[:300]}")
    print("env " + json.dumps(environment(root, args), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
