"""The superforms benchmark: time to verdict, one fresh process per op.

    python3 bench/run.py --workload algebra-verify --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all                  # every workload, in turn
    python3 bench/run.py --workload fixed-points --trace 1
    python3 bench/run.py --workload group-verify --out results.json
    python3 bench/run.py --compare before.json after.json
    python3 bench/run.py --self-test
    python3 bench/run.py --write-digests

A run goes through its workload's fixed op list (``ops.py``) in an order
drawn from the seed, one child at a time (a closed loop with one client),
and repeats the list while the next pass fits in ``--seconds``.  Each child
imports the package, runs one op and reports; the benchmark checks the
verdict against the op's known answer and, at the default seed, the report
bytes against ``digests.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of ``BENCHMARK.json``, or its per-layer metrics with
``--trace 1``).

Times are reported in reference seconds.  The machine's speed jumps by up
to 1.7x from one second to the next, so every child times a fixed
pure-Python calibration loop before set-up, before the op and after it.  Set-up
time is scaled by ``CALIBRATION_REF_S`` over the median loop time around it,
the op's time by ``CALIBRATION_REF_S`` over the mean of the medians before and
after it.  Raw times are kept beside them in ``--out`` files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import ops as oplist

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
SCRATCH = os.path.join(ROOT, ".bench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

CALIBRATION_REF_S = 0.0017
"""Median time of the calibration loop on the reference box (2-core Intel
Xeon, Python 3.11); a reference second is a second at that speed."""
RUN_DEADLINE_S = 160.0
"""No op starts after this much of a run has passed, so a run ends well
inside three minutes even on a slow box."""
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def spawn(cmd: List[str], limit_s: float) -> dict:
    """Run ``cmd`` to completion or until ``limit_s`` passes, then kill it.
    Returns its stdout, stderr, exit code, wall time, whether it was killed
    and its peak RSS from ``os.wait4``."""
    os.makedirs(SCRATCH, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    out_path = os.path.join(SCRATCH, f"child-{os.getpid()}.out")
    err_path = os.path.join(SCRATCH, f"child-{os.getpid()}.err")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
        killed = False
        pid = 0
        try:
            while not pid:
                time.sleep(0.002)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if not pid and not killed and time.monotonic() - start > limit_s:
                    proc.kill()
                    killed = True
        finally:
            if not pid:                   # interrupted: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        child = {
            "stdout": out.read().decode("utf-8", "replace"),
            "stderr": err.read().decode("utf-8", "replace"),
            "exit": proc.returncode,
            "wall_s": wall,
            "killed": killed,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
    os.remove(out_path)
    os.remove(err_path)
    return child


def run_op(workload: str, index: int, op: oplist.Op, seed: int, mode: str) -> dict:
    """One op in one child; the row the result file records for it."""
    cmd = [sys.executable, CHILD, workload, str(index), str(seed), mode]
    child = spawn(cmd, op.limit_s)
    row = {
        "op": op.id,
        "argv": op.command(seed) if op.argv else None,
        "call": op.call or None,
        "mode": mode,
        "expect": op.expect,
        "probe": op.probe,
    }
    report = None
    if not child["killed"] and child["exit"] == 0 and child["stdout"].strip():
        try:
            report = json.loads(child["stdout"].strip().splitlines()[-1])
        except ValueError:                # no result line: counted as a crash
            pass
    return classify(row, report, child, op.limit_s)


def classify(row: dict, report: Optional[dict], child: dict, limit_s: float) -> dict:
    """Fill in the verdict, its outcome and the times.  An op without a
    verdict (killed at its limit, or a crashed child) counts as taking its
    whole limit."""
    row.update(child_exit=child["exit"], wall_s=child["wall_s"], peak_rss_mb=child["peak_rss_mb"])
    if report is None:
        row["verdict"] = "undecided" if child["killed"] else f"crash:exit{child['exit']}"
        row["outcome"] = "undecided" if child["killed"] else "wrong"
        row["stderr_tail"] = child["stderr"][-400:]
        row.update(setup_s=None, verdict_s=limit_s, raw_verdict_s=limit_s, cpu_s=None, speed=None)
        return row
    calibration = report["calibration_s"]
    setup_speed = CALIBRATION_REF_S / statistics.median(calibration["setup"] + calibration["before"])
    speed = 2 * CALIBRATION_REF_S / (statistics.median(calibration["before"])
                                     + statistics.median(calibration["after"]))
    row.update(
        verdict=report["verdict"],
        outcome="right" if oplist.accepts(row["expect"], report["verdict"]) else "wrong",
        exit=report.get("exit"),
        speed=speed,
        setup_s=report["setup_s"] * setup_speed,
        verdict_s=report["verdict_s"] * speed,
        raw_setup_s=report["setup_s"],
        raw_verdict_s=report["verdict_s"],
        cpu_s=report["cpu_s"],
        calibration_s=calibration,
    )
    for key in ("stdout_sha256", "stdout_bytes", "edges", "stats", "missing"):
        if key in report:
            row[key] = report[key]
    return row


def warm_up():
    """Compile the package's bytecode once, so no timed child pays for it."""
    child = spawn([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import superforms.cli"],
                  120.0)
    if child["exit"] != 0:
        sys.exit(f"bench: cannot import superforms from {ROOT}/src:\n{child['stderr'][-800:]}")


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def load_digests() -> Dict[str, str]:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)


def execute(workload: str, seed: int, seconds: float, modes: List[str]) -> List[dict]:
    """Run whole passes over the op list while the next pass fits in
    ``seconds`` (at least one).  Each op runs once per mode, back to back."""
    op_list = oplist.WORKLOADS[workload]()
    started = time.monotonic()
    rows: List[dict] = []
    last_pass = 0.0
    pass_no = 0
    while pass_no == 0 or time.monotonic() - started + last_pass <= seconds:
        pass_start = time.monotonic()
        order = list(range(len(op_list)))
        random.Random(f"{workload}/{seed}/{pass_no}").shuffle(order)
        for index in order:
            for mode in modes:
                if time.monotonic() - started > RUN_DEADLINE_S:
                    row = {"op": op_list[index].id, "mode": mode, "pass": pass_no,
                           "probe": op_list[index].probe, "verdict": "not-run",
                           "outcome": "undecided", "verdict_s": op_list[index].limit_s,
                           "setup_s": None, "peak_rss_mb": 0.0}
                else:
                    row = run_op(workload, index, op_list[index], seed, mode)
                    row["pass"] = pass_no
                rows.append(row)
        last_pass = time.monotonic() - pass_start
        pass_no += 1
        if len(modes) > 1:
            break
    return rows


def end_to_end(rows: List[dict], seed: int, digests: Dict[str, str]) -> dict:
    """The eight end-to-end figures of one run (plain rows only)."""
    times = sorted(r["verdict_s"] for r in rows)
    n = len(times)
    passes: Dict[int, float] = {}
    for r in rows:
        passes[r["pass"]] = passes.get(r["pass"], 0.0) + r["verdict_s"]
    check_bytes = seed == oplist.DEFAULT_SEED and bool(digests)
    drift = sorted({r["op"] for r in rows
                    if check_bytes and "stdout_sha256" in r and not r["probe"]
                    and digests.get(r["op"]) != r["stdout_sha256"]})
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rows if r["setup_s"] is not None),
        "verdict_s.p50": statistics.median(times),
        "verdict_s.tail": times[n - TAIL_BEYOND - 1] if n > TAIL_BEYOND else times[-1],
        "total_s": statistics.median(passes.values()),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rows),
        "decided_share": sum(r["outcome"] == "right" for r in rows) / n,
        "wrong_verdicts": len({r["op"] for r in rows if r["outcome"] == "wrong"}),
        "report_drift": len(drift),
        "_tail_label": f"p{100 * (n - TAIL_BEYOND) // n}" if n > TAIL_BEYOND else "max",
        "_samples": n,
        "_passes": len(passes),
        "_drifted": drift,
        "_bytes_checked": check_bytes,
    }


def per_layer(rows: List[dict]) -> dict:
    """Per-layer figures of a traced run, summed over its ops (cache sizes:
    the largest any op reached), with the tracing overhead."""
    plain = [r for r in rows if r["mode"] == "plain"]
    spans = [r for r in rows if r["mode"] == "spans"]
    counts = [r for r in rows if r["mode"] == "counts"]
    out: Dict[str, float] = {}
    for r in spans:
        for parent, name, calls, _total, self_s in r.get("edges", []):
            out[name + ".calls"] = out.get(name + ".calls", 0) + calls
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + self_s * (r["speed"] or 1.0)
    stats: Dict[str, float] = {}
    for r in spans + counts:
        for key, value in r.get("stats", {}).items():
            if key.endswith(".entries") or key.endswith(".max_cols"):
                stats[key] = max(stats.get(key, 0), value)
            else:
                stats[key] = stats.get(key, 0) + value
    out.update(stats)
    nonzero = stats.get("algebra.mono_mul.nonzero", 0)
    out["algebra.mono_mul.nonzero_ratio"] = nonzero / stats["algebra.mono_mul.calls"] \
        if stats.get("algebra.mono_mul.calls") else 0.0
    osp_points = out.get("groups.sample_osp.calls", 0)
    out["groups.sample_osp.attempts_per_point"] = \
        stats.get("groups.sample_osp.attempts", 0) / osp_points if osp_points else 0.0
    out["report.bytes"] = sum(r.get("stdout_bytes", 0) for r in plain)
    plain_total = sum(r["verdict_s"] for r in plain)
    out["trace.span_overhead.ratio"] = sum(r["verdict_s"] for r in spans) / plain_total
    out["trace.count_overhead.ratio"] = sum(r["verdict_s"] for r in counts) / plain_total
    return out


def stdout_mismatches(rows: List[dict]) -> List[str]:
    """CLI ops whose traced and untraced children wrote different bytes."""
    by_op: Dict[str, set] = {}
    for r in rows:
        if "stdout_sha256" in r:
            by_op.setdefault(r["op"], set()).add(r["stdout_sha256"])
    return sorted(op for op, digests in by_op.items() if len(digests) > 1)


def tally(plain: List[dict], figures: dict, mismatched: List[str]):
    """(correct, failed) of a run.  Every op but the open-defect probes must
    return its known answer; reports must match their digests, and traced
    children must write the same bytes as untraced ones."""
    failed = sum(r["outcome"] != "right" and not r["probe"] for r in plain)
    return failed == 0 and figures["report_drift"] == 0 and not mismatched, failed


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit, "seed": seed}


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 out_path: Optional[str]) -> dict:
    spec = load_spec()
    digests = load_digests()
    rows = execute(workload, seed, seconds, ["plain", "spans", "counts"] if traced else ["plain"])
    plain = [r for r in rows if r["mode"] == "plain"]
    figures = end_to_end(plain, seed, digests)
    mismatched = stdout_mismatches(rows) if traced else []
    correct, failed = tally(plain, figures, mismatched)

    print_end_to_end(workload, seed, figures, spec, [r for r in plain if r["outcome"] != "right"])
    if traced:
        layers = per_layer(rows)
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print_per_layer(layers, names, rows, mismatched)
    else:
        metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {"correct": correct, "attempted": len(plain), "failed": failed, "metrics": metrics}
    if out_path:
        save_run(out_path, workload, seed, traced, figures, result, rows)
    return result


def save_run(path, workload, seed, traced, figures, result, rows):
    data = {"runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data["runs"].append({
        "workload": workload, "trace": int(traced), "environment": environment(seed),
        "end_to_end": figures,
        "result": result, "ops": rows,
    })
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

# Figures printed beside the end-to-end metrics of BENCHMARK.json.  They are
# 0 when all is well, so they gate the run's ``correct`` instead of a bound.
COUNTED = (("wrong_verdicts", "count"), ("report_drift", "count"))


def print_end_to_end(workload, seed, figures, spec, misses):
    print(f"workload {workload}  seed {seed}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}  ops {figures['_samples']} in {figures['_passes']} pass(es)")
    metrics = [(m["name"], m["unit"]) for m in spec["end_to_end"]] + list(COUNTED)
    for name, unit in metrics:
        note = ""
        if name == "verdict_s.tail":
            note = f"  ({figures['_tail_label']} of {figures['_samples']} ops)"
        if name == "report_drift" and not figures["_bytes_checked"]:
            note = "  (not checked: bytes are pinned at the default seed only)"
        print(f"  {name:<16} {figures[name]:>12.6g} {unit:<6}{note}")
    for r in misses:
        tag = "probe" if r["probe"] else "FAILED"
        print(f"  {tag}: {r['op']}: verdict {r['verdict']}, expected {r['expect']}")
    for op in figures["_drifted"]:
        print(f"  DRIFT: {op}: report bytes differ from digests.json")


def print_per_layer(layers, names, rows, mismatched):
    print("per-layer (traced children; self times in reference seconds):")
    for name in names:
        print(f"  {name:<44} {layers.get(name, 0):>14.6g}")
    print(f"  tracing overhead: spans {layers['trace.span_overhead.ratio']:.3f}x, "
          f"counts {layers['trace.count_overhead.ratio']:.3f}x of untraced total_s")
    missing = sorted({m for r in rows for m in r.get("missing", [])})
    if missing:
        print("  not traced (absent from the package): " + ", ".join(missing))
    if mismatched:
        for op in mismatched:
            print(f"  MISMATCH: traced and untraced stdout differ for {op}")
    else:
        print("  traced and untraced stdout identical for every CLI op")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def spread_stats(values: List[float]):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    sides = []
    for path in (path_a, path_b):
        with open(path) as fh:
            runs = [r for r in json.load(fh)["runs"] if not r["trace"]]
        sides.append(runs)
    workloads = sorted({r["workload"] for side in sides for r in side})
    print(f"A = {path_a}\nB = {path_b}")
    for workload in workloads:
        a_runs = [r for r in sides[0] if r["workload"] == workload]
        b_runs = [r for r in sides[1] if r["workload"] == workload]
        if not a_runs or not b_runs:
            print(f"{workload}: runs on one side only")
            continue
        print(f"{workload}  (A {len(a_runs)} runs, B {len(b_runs)} runs)")
        print(f"  {'metric':<16} {'A q1/median/q3':>34} {'B q1/median/q3':>34} {'B/A':>7}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["end_to_end"][name] for r in a_runs]
            b = [r["end_to_end"][name] for r in b_runs]
            qa, qb = spread_stats(a), spread_stats(b)
            ratio = qb[1] / qa[1] if qa[1] else float("inf")
            verdict = judge(a, b, metric["better"], metric["bound"])
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"  {name:<16} {fmt(qa):>34} {fmt(qb):>34} {ratio:>7.3f}  {verdict}")
        for name, _ in COUNTED:
            a = max(r["end_to_end"][name] for r in a_runs)
            b = max(r["end_to_end"][name] for r in b_runs)
            print(f"  {name:<16} {a:>34} {b:>34}")
    return 0


def judge(a: List[float], b: List[float], better: str, bound: float) -> str:
    """B against A: better, worse, within bound, or unresolved.

    Worse: B's median is worse than A's by more than the bound.  Better: every
    B run beats every A run, or B's median is better by more than the spread
    (quartile distance over median) of either side while that spread is
    within the bound.  Unresolved: the spread is wider than the bound."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = spread_stats(a), spread_stats(b)
    if not qa[1]:
        return "unresolved"
    change = sign * (qb[1] - qa[1]) / qa[1]          # > 0: B is worse
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    if change > bound:
        return "worse"
    if all(sign * y < min(sign * x for x in a) for y in b) or (-change > spread and spread <= bound):
        return "better"
    return "unresolved" if spread > bound else "within bound"


# ---------------------------------------------------------------------------
# digests and self-test
# ---------------------------------------------------------------------------

def write_digests() -> int:
    digests = {}
    for workload, make in oplist.WORKLOADS.items():
        for index, op in enumerate(make()):
            if op.call or op.probe:
                continue
            row = run_op(workload, index, op, oplist.DEFAULT_SEED, "plain")
            if row["outcome"] != "right":
                sys.exit(f"bench: {op.id} returned {row['verdict']}, expected {op.expect}; "
                         "digests not written")
            digests[op.id] = row["stdout_sha256"]
            print(f"{row['stdout_sha256'][:16]}  {op.id}")
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def self_test() -> int:
    """Check the harness itself in a few seconds: a right answer is counted
    right, a deliberately wrong expected verdict fails the run, and a child
    past its limit is killed, reaped and counted as undecided."""
    def check(ok: bool, what: str, detail):
        if not ok:
            raise SystemExit(f"bench self-test failed: {what}: {detail}")

    workload, index = "fixed-points", 0
    op = oplist.WORKLOADS[workload]()[index]
    right = run_op(workload, index, op, oplist.DEFAULT_SEED, "plain")
    check(right["outcome"] == "right", "known answer not recognised", right)
    digest = load_digests().get(op.id)
    check(digest in (None, right["stdout_sha256"]), "report drift", op.id)
    wrong_op = oplist.Op(op.id, "dim=31", argv=op.argv)
    wrong = run_op(workload, index, wrong_op, oplist.DEFAULT_SEED, "plain")
    check(wrong["outcome"] == "wrong" and wrong["verdict"] == "dim=30", "wrong answer not caught", wrong)

    limit = 0.5
    start = time.monotonic()
    child = spawn([sys.executable, "-c", "import time; time.sleep(60)"], limit)
    elapsed = time.monotonic() - start
    check(child["killed"] and elapsed < limit + 5.0, "child not killed at its limit", elapsed)
    hung = classify({"op": "sleeper", "expect": "pass", "probe": False}, None, child, limit)
    check(hung["outcome"] == "undecided" and hung["verdict_s"] == limit, "killed child miscounted", hung)

    rows = [right, wrong, hung]
    for r in rows:
        r["pass"] = 0
    figures = end_to_end(rows, oplist.DEFAULT_SEED, {})
    correct, failed = tally(rows, figures, [])
    check(figures["wrong_verdicts"] == 1 and figures["decided_share"] == 1 / 3, "figures", figures)
    check(not correct and failed == 2, "run not failed", (correct, failed))
    print("self-test passed: right, wrong and killed children are counted as such")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one of " + ", ".join(oplist.WORKLOADS) + ", or all")
    parser.add_argument("--seed", type=int, default=oplist.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run, with every op's row, to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "superforms", "__init__.py")):
        print(f"bench: no superforms source under {ROOT}/src", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    warm_up()
    if args.self_test:
        return self_test()
    if args.write_digests:
        return write_digests()
    if args.workload == "all":
        workloads = list(oplist.WORKLOADS)
    elif args.workload in oplist.WORKLOADS:
        workloads = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    for workload in workloads:
        result = run_workload(workload, args.seed, seconds, bool(args.trace), args.out)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
