"""Acceptance suite.

Nine end-to-end criteria, each printing one ``[PASS]``/``[FAIL]`` line
(visible with ``pytest -s``); every comparison is exact — no tolerances
anywhere.  Time budgets are asserted where a criterion carries one.
"""

import io
import json
import time
from contextlib import redirect_stdout

import pytest

from superforms.algebra import AlgebraSignature, GRADED, STANDARD
from superforms.catalog import PARAM_ARITY, applicable_names, build, corrupted_sigma1
from superforms.cli import main as cli_main
from superforms.groups import (
    group_commutator_identity, lie_fixed_span_check, sample_invertible,
    verify_group_structure,
)
from superforms.liealg import (
    GL, MatrixKind, OSP, SL, even_rules_bracket, matrix_of, tensor_of,
)
from superforms.matrices import berezinian, identity_matrix, supertrace
from superforms.realforms import (
    compact_scan, extract_vector_conjugation, rebuild_matches,
    representability_check, verify_structure,
)
from superforms.sampling import random_point, random_tensor, rng_for
from superforms.algebra import adjoin_dual, one

SHAPES = [(SL, 1, 1), (SL, 2, 1), (SL, 2, 2), (OSP, 1, 2), (OSP, 2, 2)]

SIG1 = {STANDARD: AlgebraSignature(1, 0, 0, STANDARD),
        GRADED: AlgebraSignature(1, 0, 0, GRADED)}
SIG2 = {STANDARD: AlgebraSignature(2, 0, 0, STANDARD),
        GRADED: AlgebraSignature(2, 0, 0, GRADED)}
SIG0 = {STANDARD: AlgebraSignature(0, 0, 0, STANDARD),
        GRADED: AlgebraSignature(0, 0, 0, GRADED)}


def announce(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def representative_descriptors():
    """Every applicable descriptor at its default (boundary) parameters, plus
    one mixed-signature parameter choice where the ranges allow one."""
    out = []
    for fam, m, n in SHAPES:
        kind = MatrixKind(fam, m, n)
        h = n // 2
        for name in applicable_names(kind):
            default = build(name, kind)
            out.append(default)
            if PARAM_ARITY.get(name, 0):
                if name == "xi1":
                    mixed = {"p": m // 2}
                elif name == "xi2":
                    mixed = {"p": h // 2}
                elif name == "psi1":
                    mixed = {"p": m // 2, "q": h // 2}
                else:
                    mixed = {"p": m // 2, "q": n // 2}
                candidate = build(name, kind, **mixed)
                if candidate.param_dict() != default.param_dict():
                    out.append(candidate)
    return out


def test_criterion_1_even_rules_consistency():
    """Tensor-form bracket equals the matrix commutator: 200 pairs per family."""
    start = time.monotonic()
    sig = AlgebraSignature(2, 0, 0, STANDARD)      # two conjugate odd pairs
    checked = 0
    for kind in (MatrixKind(SL, 2, 2), MatrixKind(GL, 2, 1)):
        rng = rng_for(100, "even-rules", kind.display())
        for _ in range(200):
            x = random_tensor(kind, sig, rng)
            y = random_tensor(kind, sig, rng)
            lhs = even_rules_bracket(x, y)
            mx, my = matrix_of(x), matrix_of(y)
            assert lhs == tensor_of(kind, mx * my - my * mx)
            checked += 1
    elapsed = time.monotonic() - start
    announce(1, checked == 400 and elapsed < 5.0,
             f"even-rules bracket = matrix commutator on {checked} pairs "
             f"(sl(2|2), gl(2|1)), {elapsed:.2f}s < 5s")


def test_criterion_2_real_structure_suite():
    """All applicable descriptors pass the six axioms exactly on 100 samples
    (70 with one odd pair, 30 with two); the printed xi2 variant is flagged,
    not failed; the corrupted control fails with a counterexample."""
    start = time.monotonic()
    verified = 0
    for desc in representative_descriptors():
        for sig, samples, seed in ((SIG1[desc.conjugation], 70, 200),
                                   (SIG2[desc.conjugation], 30, 201)):
            checks = verify_structure(desc, sig, samples=samples, seed=seed)
            statuses = {c.name: c.status for c in checks}
            assert set(statuses.values()) == {"pass"}, (desc.display(), statuses)
        verified += 1

    strict = build("xi2", MatrixKind(OSP, 2, 2), strict=True)
    checks = verify_structure(strict, SIG1[STANDARD], samples=100, seed=202)
    statuses = {c.name: c.status for c in checks}
    assert statuses["antilinearity"] == "flagged", statuses
    assert "fail" not in statuses.values(), statuses

    control = corrupted_sigma1(MatrixKind(SL, 2, 1))
    checks = verify_structure(control, SIG1[STANDARD], samples=100, seed=203)
    failed = {c.name: c for c in checks if c.status == "fail"}
    assert set(failed) == {"bracket-morphism"}, set(failed)
    assert failed["bracket-morphism"].witness is not None

    elapsed = time.monotonic() - start
    announce(2, elapsed < 60.0,
             f"{verified} descriptor instances x 100 samples all pass; "
             f"printed xi2 flagged; corrupted control fails bracket-morphism "
             f"with witness; {elapsed:.2f}s < 60s")


def test_criterion_3_extraction():
    """The vector-level conjugation satisfies its square law on every basis
    vector and rebuilds the structure on all of g(A), certified on a basis
    of g."""
    count = 0
    for desc in representative_descriptors():
        phi = extract_vector_conjugation(desc)      # validates the square law
        out = rebuild_matches(desc, phi, SIG1[desc.conjugation], samples=100, seed=300)
        assert out.status == "pass", desc.display()
        assert out.note == f"certified on a basis of {len(phi.coords)}", desc.display()
        count += 1
    announce(3, True,
             f"square law + rebuild certified on a basis of g for {count} descriptor instances")


def test_criterion_4_representability_dichotomy():
    """Standard: fixed points = products span (double inclusion).  Graded: a
    fixed element outside the products span exists whenever A has an odd pair."""
    spans, witnesses = 0, 0
    for desc in representative_descriptors():
        result = representability_check(desc, SIG1[desc.conjugation])
        if desc.conjugation == STANDARD:
            assert result["mode"] == "span-comparison"
            assert result["representable"] is True, desc.display()
            spans += 1
        else:
            assert result["mode"] == "witness"
            assert result["witness_fixed"] is True, desc.display()
            assert result["witness_in_product_span"] is False, desc.display()
            witnesses += 1
    announce(4, spans > 0 and witnesses > 0,
             f"span equality for {spans} standard instances; verified "
             f"out-of-span witness for {witnesses} graded instances")


def test_criterion_5_berezinian():
    """Multiplicativity on 50 invertible pairs per shape; the dual-number
    expansion Ber(Id + eps N) = 1 + eps str(N) on 50 samples per shape."""
    sig = AlgebraSignature(2, 0, 0, STANDARD)
    ext, inc, _, eps = adjoin_dual(sig)
    pairs = expansions = 0
    for m, n in ((1, 1), (2, 1), (2, 2)):
        rng = rng_for(500, "ber", f"{m}|{n}")
        for _ in range(50):
            x = sample_invertible(m, n, sig, rng)
            y = sample_invertible(m, n, sig, rng)
            assert berezinian(x * y) == berezinian(x) * berezinian(y)
            pairs += 1
        gl_kind = MatrixKind(GL, m, n)
        for _ in range(50):
            n_pt = random_point(gl_kind, sig, rng)
            z = identity_matrix(m, n, ext) + n_pt.map_entries(inc.apply, ext).scale(eps)
            assert berezinian(z) == one(ext) + eps * inc.apply(supertrace(n_pt))
            expansions += 1
    announce(5, pairs == 150 and expansions == 150,
             f"multiplicativity on {pairs} invertible pairs; "
             f"Ber(Id+eN) = 1+e str(N) on {expansions} samples")


def test_criterion_6_group_lifts():
    """Every lifted structure passes the group axioms (closure,
    multiplicativity, involutivity, dual-number equivariance) and the lift
    consistency identity on 50 samples."""
    verified = 0
    for fam, m, n in SHAPES:
        kind = MatrixKind(fam, m, n)
        for name in applicable_names(kind):
            desc = build(name, kind)
            checks = verify_group_structure(desc, SIG1[desc.conjugation],
                                            samples=50, seed=600)
            statuses = {c.name: c.status for c in checks}
            assert set(statuses.values()) == {"pass"}, (desc.display(group=True), statuses)
            verified += 1
    announce(6, True,
             f"{verified} group lifts pass all five conditions on 50 samples each")


def test_criterion_7_commutator_and_fixed_span():
    """The group commutator recovers the bracket over A(e,h); the fixed span
    of the lifted structure on the dual-number kernel equals the algebra-level
    fixed span, at both the pure-scalar and one-odd-pair coefficient algebras."""
    commutators = 0
    for fam, m, n in SHAPES:
        kind = MatrixKind(fam, m, n)
        for sig in (SIG0[STANDARD], SIG1[STANDARD]):
            out = group_commutator_identity(kind, sig, samples=50, seed=700)
            assert out.status == "pass", (kind.display(), sig.odd_pairs)
            commutators += 1
    spans = 0
    for fam, m, n in SHAPES:
        kind = MatrixKind(fam, m, n)
        for name in applicable_names(kind):
            desc = build(name, kind)
            for sig in (SIG0[desc.conjugation], SIG1[desc.conjugation]):
                res = lie_fixed_span_check(desc, sig)
                assert res["spans_agree"] is True, (desc.display(group=True), sig.odd_pairs)
                assert res["group_fixed_dimension"] == res["expected_dimension"]
                spans += 1
    announce(7, True,
             f"commutator identity at {commutators} shape/algebra combinations; "
             f"fixed-span agreement for {spans} lift/algebra combinations")


def test_criterion_8_compactness_scan():
    """The scan finds the expected compact graded rows on all four shapes,
    certifies them by positive Sylvester minors, and reports uniqueness."""
    start = time.monotonic()
    expectations = {
        (SL, 2, 1): "sl(2|1):omega2(2,1)",
        (SL, 3, 1): "sl(3|1):omega2(3,1)",
        (OSP, 1, 2): "osp(1|2):psi1(1,1)",
        (OSP, 2, 2): "osp(2|2):psi1(2,1)",
    }
    details = []
    for (fam, m, n), expected_row in expectations.items():
        kind = MatrixKind(fam, m, n)
        scan = compact_scan(kind)
        summary = scan["summary"]
        assert summary["compact_graded"], kind.display()
        assert expected_row in summary["compact_graded"], (expected_row, summary)
        for row in scan["rows"]:
            if row.get("compact"):
                assert row["minors"], row
                assert all(not minor.startswith("-") and minor != "0"
                           for minor in row["minors"]), row
        assert summary["distinct_compact_graded_even_spans"] == 1, summary
        details.append(f"{kind.display()}: {len(summary['compact_graded'])} graded "
                       f"compact rows, 1 even span")
    elapsed = time.monotonic() - start
    announce(8, elapsed < 120.0,
             "; ".join(details) + f"; {elapsed:.2f}s < 120s")


def test_criterion_9_determinism():
    """Identical command lines produce byte-identical JSON reports."""
    commands = [
        ["verify", "sl", "2", "2", "sigma4", "--samples", "25", "--seed", "9", "--format", "json"],
        ["verify", "sl", "2", "1", "Omega2", "--samples", "15", "--seed", "9", "--format", "json"],
        ["verify", "osp", "2", "2", "xi2", "--strict-printed", "--samples", "15",
         "--seed", "9", "--format", "json"],
        ["fixed-basis", "osp", "1", "2", "psi1", "--format", "json"],
        ["witness", "sl", "1", "1", "omega3", "--format", "json"],
        ["compact-scan", "sl", "3", "1", "--format", "json"],
    ]
    identical = 0
    for argv in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(list(argv))
            assert code == 0, argv
            outputs.append(buf.getvalue())
        assert outputs[0].encode("utf-8") == outputs[1].encode("utf-8"), argv
        json.loads(outputs[0])                     # well-formed JSON as well
        identical += 1
    announce(9, identical == len(commands),
             f"{identical} report commands byte-identical across repeated runs")
