"""Command-line interface: exit codes, report schema, byte determinism."""

import gc
import io
import json
import signal
import time
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import pytest

from superforms.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "superforms" / "report_schema.json").read_text()
)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_verify_algebra_passes():
    code, out = run_cli("verify", "sl", "2", "1", "sigma1", "--p", "1", "--q", "1",
                        "--samples", "8")
    assert code == 0
    assert "[PASS] closure" in out
    assert "verdict: pass" in out


def test_verify_group_level():
    code, out = run_cli("verify", "sl", "1", "1", "Omega2", "--samples", "6")
    assert code == 0
    assert "[PASS] multiplicativity" in out
    assert "[PASS] fixed-span-agreement" in out


def test_verify_json_schema():
    for argv in (
        ("verify", "sl", "1", "1", "sigma3", "--samples", "5", "--format", "json"),
        ("verify", "osp", "2", "2", "Psi2", "--samples", "5", "--format", "json"),
        ("fixed-basis", "sl", "1", "1", "omega3", "--format", "json"),
        ("witness", "sl", "1", "1", "omega2", "--format", "json"),
        ("compact-scan", "osp", "1", "2", "--format", "json"),
    ):
        code, out = run_cli(*argv)
        assert code == 0, argv
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)


def test_json_byte_determinism():
    argvs = [
        ("verify", "sl", "2", "1", "omega2", "--samples", "10", "--format", "json"),
        ("verify", "osp", "2", "2", "Xi1", "--samples", "6", "--format", "json"),
        ("compact-scan", "sl", "2", "1", "--format", "json"),
        ("witness", "osp", "1", "2", "psi1", "--format", "json"),
    ]
    for argv in argvs:
        _, first = run_cli(*argv)
        _, second = run_cli(*argv)
        assert first.encode() == second.encode(), argv


def test_seed_changes_samples_not_verdict():
    _, out_a = run_cli("verify", "sl", "1", "1", "sigma3", "--samples", "6",
                       "--seed", "1", "--format", "json")
    _, out_b = run_cli("verify", "sl", "1", "1", "sigma3", "--samples", "6",
                       "--seed", "2", "--format", "json")
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["summary"] == b["summary"]
    assert a["config"]["seed"] == 1 and b["config"]["seed"] == 2


def test_flagged_strict_variant_exits_zero():
    # the algebra level flags antilinearity; the group level flags the
    # twisted scaling by i, which the algebra level calls naturality
    for name, samples, flag in (("xi2", "5", "[FLAG] antilinearity"),
                                ("Xi2", "3", "[FLAG] dual-equivariance (3 samples) — 2 failure(s)")):
        code, out = run_cli("verify", "osp", "2", "2", name, "--strict-printed", "--samples", samples)
        assert code == 0, name
        assert flag in out
        assert "verdict: pass" in out


def test_usage_errors_exit_two():
    cases = [
        ("verify", "sl", "2", "1", "nosuch"),
        ("verify", "sl", "2", "1", "sigma3"),                  # inapplicable shape
        ("verify", "sl", "2", "1", "SIGMA1"),                  # bad capitalization
        ("verify", "osp", "2", "3", "xi1"),                    # odd lower block
        ("verify", "sl", "2", "1", "omega2", "--odd-selfreal", "1"),
        ("witness", "sl", "1", "1", "Sigma3"),                 # group level not meaningful
        ("fixed-basis", "sl", "1", "1", "Omega2"),
        ("verify", "sl", "2", "1", "sigma1", "--p", "9"),
        ("witness", "sl", "1", "1", "omega2", "--odd-pairs", "0"),  # graded needs an odd pair
        ("witness", "sl", "2", "0", "omega2"),                 # ... and an odd vector
    ]
    for argv in cases:
        code, _ = run_cli(*argv)
        assert code == 2, argv


@pytest.mark.parametrize("name, even_nil", [("sigma1", "4"), ("Sigma1", "3")])
def test_verify_refuses_even_nilpotents_that_leave_no_room_for_dual_generators(name, even_nil, capsys):
    # verify adjoins one dual generator at the algebra level and two at the
    # group level, and an algebra has at most four even nilpotent generators
    code, out = run_cli("verify", "sl", "1", "1", name, "--even-nil", even_nil)
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert "dual generator" in err and "Traceback" not in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_sample_count_below_one_is_a_usage_error(count, capsys):
    code, out = run_cli("verify", "sl", "2", "1", "sigma1", "--samples", count)
    assert code == 2
    assert out == ""
    assert "--samples: must be at least 1" in capsys.readouterr().err


ZERO_DIMENSIONAL = [("sl", "1", "0", "sigma1"), ("sl", "0", "1", "sigma1"), ("osp", "1", "0", "xi1")]


@pytest.mark.parametrize("family, m, n, name", ZERO_DIMENSIONAL)
@pytest.mark.parametrize("command", ["verify", "verify-group", "fixed-basis", "witness", "compact-scan"])
def test_zero_dimensional_shape_is_a_usage_error(command, family, m, n, name, capsys):
    # every check on an algebra of dimension 0 would pass vacuously
    if command == "compact-scan":
        argv = (command, family, m, n)
    elif command == "verify-group":
        argv = ("verify", family, m, n, name.capitalize())
    else:
        argv = (command, family, m, n, name)
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert f"{family}({m}|{n}) has dimension 0" in err and "vacuously" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("m, n", [("1", "0"), ("0", "1")])
def test_size_one_group_verify_returns_promptly(m, n):
    """SL(1|0) and SL(0|1) are trivial groups: verify refuses them at once
    rather than sampling them."""
    def hang(signum, frame):
        raise TimeoutError("verify did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        start = time.perf_counter()
        code, out = run_cli("verify", "sl", m, n, "Sigma1")
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (2, "")
    assert elapsed < 1.0


def test_failure_exit_code(monkeypatch):
    from superforms import cli as cli_module
    from superforms.report import CheckOutcome

    def fake_verify(desc, sig, samples=50, seed=0):
        return [CheckOutcome("closure", "fail", samples, {"input": "x"}, "1 failure(s)")]

    monkeypatch.setattr(cli_module, "verify_structure", fake_verify)
    code, out = run_cli("verify", "sl", "1", "1", "sigma3")
    assert code == 1
    assert "[FAIL] closure" in out
    assert "verdict: fail" in out


def test_sampling_failure_exits_two_with_the_reason(monkeypatch, capsys):
    from superforms import groups

    def no_point(kind, sig, rng):
        raise groups.SamplingFailed(f"no group point for {kind.display()}")

    monkeypatch.setattr(groups, "sample_group", no_point)
    code = main(["verify", "sl", "1", "1", "Sigma1", "--samples", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "superforms: sampling failed: no group point for sl(1|1)" in captured.err


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("shape, code", [(("sl", "1", "1"), 0), (("sl", "1", "0"), 2)],
                         ids=["exit-0", "exit-2"])
def test_the_collector_pauses_for_a_command_and_resumes_as_the_caller_had_it(
        monkeypatch, capsys, shape, code, collecting):
    from superforms import cli as cli_module
    states = []

    def observed_verify(*args, **kwargs):
        states.append(gc.isenabled())
        return verify(*args, **kwargs)

    verify = cli_module.verify_structure
    monkeypatch.setattr(cli_module, "verify_structure", observed_verify)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(["verify", *shape, "sigma1", "--samples", "2"]) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert states == ([False] if code == 0 else [])


def test_the_collector_resumes_after_an_uncaught_error(monkeypatch):
    from superforms import cli as cli_module

    def broken_verify(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli_module, "verify_structure", broken_verify)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="planted"):
        main(["verify", "sl", "1", "1", "sigma1", "--samples", "2"])
    assert gc.isenabled()


def test_a_longer_run_leaves_no_more_cyclic_garbage():
    # with the collector paused, garbage in cycles would stay until the
    # command ends; a run of ten times the samples must leave no more of it
    argv = ("verify", "sl", "2", "1", "Sigma1", "--samples")
    run_cli(*argv, "2")             # warm-up: the parser and the package's tables
    unreachable = {}
    for samples in ("2", "20"):
        gc.collect()
        assert run_cli(*argv, samples)[0] == 0
        unreachable[samples] = gc.collect()
    assert unreachable["20"] <= unreachable["2"]


def test_witness_text_report():
    code, out = run_cli("witness", "sl", "1", "1", "omega2")
    assert code == 0
    assert "witness_data:" in out
    assert "witness_fixed: True" in out


def test_witness_at_four_odd_pairs():
    code, out = run_cli("witness", "sl", "2", "2", "sigma1", "--odd-pairs", "4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["verdict"] == "pass"
    assert report["witness_data"]["product_span_rank"] == 1920


def test_witness_eliminates_only_small_blocks(monkeypatch):
    # the product span and the fixed points are reduced sparsely: no vector
    # handed to or returned by the elimination comes near the 512 real
    # coordinates of the whole space here
    from superforms import linalg

    sizes = []

    def recording(kernel):
        def wrapped(vectors):
            vectors = list(vectors)
            result = kernel(vectors)
            sizes.extend(len(v) for v in vectors + result)
            return result
        return wrapped

    for name in ("nullspace", "span_basis"):
        monkeypatch.setattr(linalg, name, recording(getattr(linalg, name)))
    code, _ = run_cli("witness", "sl", "2", "1", "omega2", "--odd-pairs", "3")
    assert code == 0
    assert sizes and max(sizes) <= 16


def test_fixed_basis_counts():
    code, out = run_cli("fixed-basis", "osp", "1", "2", "xi1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    block = report["fixed_point_basis"]
    assert block["dimension"] == block["expected_dimension"] == len(block["basis"])


def test_compact_scan_text():
    code, out = run_cli("compact-scan", "sl", "2", "1")
    assert code == 0
    assert "scan:" in out
    assert "compact_graded" in out


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_repeated_calls_print_identical_bytes():
    argv = ("verify", "sl", "2", "1", "omega2", "--samples", "4", "--format", "json")
    first, second = run_cli(*argv), run_cli(*argv)
    assert first[0] == 0 and first == second


def test_a_usage_error_leaves_the_parser_usable(capsys):
    assert main(["verify", "sl", "2", "1", "sigma1", "--samples", "0"]) == 2
    assert main(["verify", "sl", "2", "1", "nosuch"]) == 2
    capsys.readouterr()
    code, out = run_cli("fixed-basis", "sl", "1", "1", "sigma1", "--format", "json")
    assert code == 0 and json.loads(out)["fixed_point_basis"]["dimension"] == 6


def test_later_calls_construct_no_parser(monkeypatch):
    import argparse

    run_cli("compact-scan", "sl", "1", "1")
    constructed = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        constructed.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code, _ = run_cli("compact-scan", "sl", "1", "1")
    assert code == 0 and constructed == []
