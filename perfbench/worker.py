"""One benchmark process: set up, then run ops in a closed loop.

Usage: python3 perfbench/worker.py '<json config>'  (started by run.py)

The config names the workload, seed, run length, trace flag, the
directory for CSV outputs and the path of the JSON result. The result holds
the set-up time, every op's wall time, exit codes and printed output, the
op's layer figures when it was traced, and the peak resident memory of this
process and its children.

In-process workloads count the import of qnswitch plus one untimed warm-up
op as set-up, then call ``qnswitch.cli.main`` once per command. The cold
workload counts a fresh interpreter's ``import qnswitch.cli`` as set-up and
runs each command as ``python -m qnswitch.cli``; when traced, through
``traced_cli.py``, which wraps the same entry point. With tracing on, even
ops are traced and odd ops are not, so the two medians give the overhead.

Host speed. The machine this benchmark was built on shares its cores with
other tenants, and its speed drifts by up to 2x over tens of seconds. So
the worker pins itself (and the processes it starts) to one CPU and times a
fixed pure-Python reference loop right before and right after the set-up
and every op. run.py scales each wall time by REFERENCE_NOMINAL_S over the
mean of those two readings, which expresses it at the uncontended speed of
that host; both readings are kept in the result.
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from workloads import WARMUP, WORKLOADS, Op, make_op

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 120

# The reference loop: dict lookups on tuple keys and list stores, the mix the
# program's hot loops are made of. REFERENCE_NOMINAL_S is its fastest
# reading on the host the benchmark was built on (2 vCPUs, Python 3.11.7).
REFERENCE_NOMINAL_S = 0.63e-3
_REF_KEYS = [(n, k, kp, (k % 3, kp % 5)) for n in range(4) for k in range(24) for kp in range(24)]
_REF_TABLE = {key: float(i) for i, key in enumerate(_REF_KEYS)}
_REF_ROWS = [[0.0] * 24 for _ in range(24)]


def reference_s() -> float:
    """Seconds the fixed reference loop takes right now."""
    start = perf_counter()
    for _ in range(3):
        for key in _REF_KEYS:
            _REF_ROWS[key[1]][key[2]] = _REF_TABLE[key] * 0.5
    return perf_counter() - start


def _in_process_op(cli, op: Op) -> dict:
    outputs, codes, error = [], [], None
    elapsed = 0.0
    for argv in op.commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                codes.append(cli.main(list(argv)))
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            elapsed += perf_counter() - start
        outputs.append(out.getvalue())
        if error is not None:
            break
        if err.getvalue():
            error = err.getvalue().strip()
    return {"wall_s": elapsed, "codes": codes, "error": error, "outputs": outputs}


def _cold_op(cfg: dict, op: Op, index: int, traced: bool) -> dict:
    outputs, codes, error, layers = [], [], None, None
    elapsed = 0.0
    for argv in op.commands:
        if traced:
            layers_path = os.path.join(cfg["out_dir"], f"layers-{index}.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), layers_path,
                   cfg["spans"], str(index), *argv]
        else:
            cmd = [sys.executable, "-m", "qnswitch.cli", *argv]
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        elapsed += perf_counter() - start
        codes.append(proc.returncode)
        outputs.append(proc.stdout)
        if proc.returncode != 0 or proc.stderr:
            error = proc.stderr.strip() or f"exit code {proc.returncode}"
            break
        if traced:
            with open(layers_path, encoding="utf-8") as handle:
                layers = json.load(handle)
    return {"wall_s": elapsed, "codes": codes, "error": error, "outputs": outputs,
            "layers": layers}


def _cold_setup() -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import qnswitch.cli"], check=True,
                   timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start


def run(cfg: dict) -> dict:
    name, seed, tiny = cfg["workload"], cfg["seed"], cfg["tiny"]
    trace, out_dir = cfg["trace"], cfg["out_dir"]
    in_process = WORKLOADS[name]
    tracer = None
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup_ref = [reference_s()]
    if in_process:
        start = perf_counter()
        import qnswitch.cli as cli

        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.begin_op(WARMUP)
        warmup = _in_process_op(cli, make_op(name, seed, WARMUP, out_dir, tiny))
        setup_s = perf_counter() - start
        if warmup["error"] or any(warmup["codes"]):
            raise RuntimeError(f"warm-up op failed: {warmup['error'] or warmup['codes']}")
    else:
        setup_s = _cold_setup()
    setup_ref.append(reference_s())
    result = {"setup_s": setup_s, "setup_ref_s": setup_ref, "ops": []}
    if cfg["setup_only"]:
        return result

    deadline = perf_counter() + cfg["seconds"]
    index = 0
    while index < 2 or perf_counter() < deadline:
        op = make_op(name, seed, index, out_dir, tiny)
        traced = bool(trace) and index % 2 == 0
        before = reference_s()
        if in_process:
            if tracer is not None:
                if traced:
                    tracer.install()
                    tracer.begin_op(index)
                else:
                    tracer.uninstall()
            record = _in_process_op(cli, op)
            if traced:
                record["layers"] = tracer.end_op()
        else:
            record = _cold_op(cfg, op, index, traced)
        record["ref_s"] = [before, reference_s()]
        record["traced"] = traced
        result["ops"].append(record)
        index += 1

    if tracer is not None:
        tracer.uninstall()
        tracer.dump_spans(cfg["spans"])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_kb"] = max(own, children)
    return result


def main() -> int:
    cfg = json.loads(sys.argv[1])
    result = run(cfg)
    with open(cfg["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
