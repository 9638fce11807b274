"""One benchmark op in a fresh interpreter.

    python3 bench/child.py <workload> <op index> <workload seed> <plain|spans|counts>

Imports ``superforms`` and builds the CLI parser (set-up), runs the op
(verdict), and prints one JSON line with the verdict, both times, the CPU
time, the calibration times (before set-up, before and after the op) and,
for CLI ops, the digest of the report it wrote.  In the ``spans`` and
``counts`` modes it also reports per-layer figures (see ``tracing.py``).

Only the standard modules below are imported before set-up is timed, so
set-up pays for everything ``import superforms`` pulls in.
"""

import gc
import os
import sys
import time
from math import gcd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

CALIBRATION_REPS = 7


def _calibration_loop() -> int:
    """A fixed piece of pure-Python exact arithmetic (ints, gcd, tuples, a
    dict) that touches no package code: its time tracks the machine's speed."""
    num, den = 0, 1
    table = {}
    for i in range(1, 2500):
        a, b = i % 7 + 1, i % 11 + 1
        num, den = num * b + a * den, den * b
        g = gcd(num, den)
        num //= g
        den //= g
        table[(i, i & 7)] = num % 97
    return num


def calibrate() -> list:
    """CALIBRATION_REPS timings of the calibration loop.  The collector is
    off meanwhile, so the op's heap does not slow it."""
    times = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(CALIBRATION_REPS):
            start = time.perf_counter()
            _calibration_loop()
            times.append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return times


def run(workload: str, index: int, workload_seed: int, mode: str) -> dict:
    _calibration_loop()               # a fresh interpreter runs it slower once
    calibration = {"setup": calibrate()}

    setup_start = time.perf_counter()
    import superforms  # noqa: F401
    import superforms.cli
    superforms.cli.build_parser()
    setup_s = time.perf_counter() - setup_start

    import hashlib
    import io
    from contextlib import redirect_stdout

    import ops as oplist  # bench/ is on sys.path as the script's directory
    import tracing

    op = oplist.WORKLOADS[workload]()[index]
    tracer = tracing.Tracer()
    if mode == "spans":
        tracing.install_spans(tracer)
    elif mode == "counts":
        tracing.install_counts(tracer)
    calibration["before"] = calibrate()

    row = {"setup_s": setup_s}
    stdout = io.StringIO()
    argv = None if op.call else op.command(workload_seed)
    cpu_start = time.process_time()
    start = time.perf_counter()
    if mode == "spans":
        tracer.enter(tracing.ROOT_SPAN)
    try:
        if op.call:
            verdict = oplist.CALLS[op.call](oplist.op_seed(op.seed, workload_seed))
        else:
            with redirect_stdout(stdout):
                row["exit"] = superforms.cli.main(argv)
    except Exception as exc:          # the op's verdict is the failure itself
        verdict = f"error:{type(exc).__name__}"
    finally:
        elapsed = time.perf_counter() - start
        row["cpu_s"] = time.process_time() - cpu_start
        if mode == "spans":
            tracer.leave()
    row["verdict_s"] = elapsed
    calibration["after"] = calibrate()
    if "exit" in row:
        verdict = oplist.cli_verdict(argv, row["exit"], stdout.getvalue())

    row["verdict"] = verdict
    row["calibration_s"] = calibration
    if not op.call:
        data = stdout.getvalue().encode("utf-8")
        row["stdout_sha256"] = hashlib.sha256(data).hexdigest()
        row["stdout_bytes"] = len(data)
    if mode == "spans":
        row["edges"] = [[parent, name, *figures] for (parent, name), figures in tracer.edges.items()]
    if mode != "plain":
        tracing.read_counts(tracer)
        row["stats"] = {**tracer.stats, **tracing.cache_sizes()}
        row["missing"] = tracer.missing
    return row


def main(argv) -> int:
    import json
    workload, index, workload_seed, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    row = run(workload, index, workload_seed, mode)
    sys.stdout.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
