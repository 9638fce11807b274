"""Command-line interface.

Usage sketch (see README for a guided tour)::

    superforms verify sl 2 1 sigma1 --p 1 --q 1
    superforms verify sl 2 2 Sigma3 --samples 25        # capitalized = group level
    superforms fixed-basis sl 1 1 omega3
    superforms witness sl 1 1 omega2 --p 1 --q 1 --format json
    superforms compact-scan osp 2 2

The fourth positional of ``verify`` / ``fixed-basis`` / ``witness`` selects a
structure from the catalog; an all-lowercase name (``sigma1``) targets the
algebra of the matrix family, a capitalized name (``Sigma1``) targets the
lifted structure on the corresponding supergroup.  Coefficient algebras are
chosen with ``--odd-pairs`` / ``--odd-selfreal`` / ``--even-nil``; the kind of
conjugation is dictated by the structure itself.

Exit status: 0 when every check passed (flagged-as-expected counts as
passing), 1 when some check failed, 2 on usage or applicability errors
(a shape of dimension 0, such as ``sl 1 0``, is one: every check would pass
vacuously) and when sampling gives up before any check is decided.

All output is deterministic for a fixed command line: samples are drawn from
a seeded generator and reports carry no timestamps, so ``--format json`` is
byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from typing import List, Optional

from .algebra import MAX_EVEN_NILPOTENT, AlgebraSignature
from .catalog import InapplicableDescriptor, build, descriptor_summary, names_for
from .groups import (
    SamplingFailed, group_commutator_identity, lie_fixed_span_check,
    verify_group_structure,
)
from .liealg import OSP, SL, MatrixKind, basis_of
from .realforms import (
    compact_scan, fixed_point_data, matrix_literal, representability_check,
    verify_structure,
)
from .report import (
    CheckOutcome, FAIL, PASS, build_report, render, signature_dict,
)


class UsageError(ValueError):
    pass


def _matrix_kind(family: str, m: int, n: int) -> MatrixKind:
    if family not in (SL, OSP):
        raise UsageError(f"unknown matrix family {family!r} (choose sl or osp)")
    try:
        kind = MatrixKind(family, m, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not basis_of(kind):
        raise UsageError(f"{kind.display()} has dimension 0, so every check would pass vacuously")
    return kind


def _descriptor(args) -> tuple:
    """(descriptor, group_level) from parsed arguments."""
    kind = _matrix_kind(args.family, args.m, args.n)
    raw = args.name
    base = raw.lower()
    if base not in names_for(kind):
        raise UsageError(
            f"unknown structure {raw!r} for {kind.display()}; "
            f"choose from {', '.join(names_for(kind))} "
            "(capitalize the first letter for the group level)"
        )
    if raw == base:
        group = False
    elif raw == base.capitalize():
        group = True
    else:
        raise UsageError(
            f"structure name must be {base!r} (algebra) or {base.capitalize()!r} (group), got {raw!r}"
        )
    try:
        desc = build(base, kind, p=args.p, q=args.q, strict=args.strict_printed)
    except InapplicableDescriptor as exc:
        raise UsageError(str(exc)) from None
    return desc, group


def _signature(args, conjugation: str) -> AlgebraSignature:
    try:
        return AlgebraSignature(
            odd_pairs=args.odd_pairs,
            odd_selfreal=args.odd_selfreal,
            even_nilpotents=args.even_nil,
            conjugation=conjugation,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _config(args, group: bool, with_samples: bool = True) -> dict:
    config = {}
    if with_samples:
        config["samples"] = args.samples
        config["seed"] = args.seed
    if args.strict_printed:
        config["strict_printed"] = True
    config["level"] = "group" if group else "algebra"
    return config


def _emit(report: dict, fmt: str) -> int:
    sys.stdout.write(render(report, fmt))
    return 0 if report["summary"]["verdict"] == PASS else 1


def _cmd_verify(args) -> int:
    desc, group = _descriptor(args)
    sig = _signature(args, desc.conjugation)
    duals = 2 if group else 1       # naturality adjoins one, the commutator identity two
    if sig.even_nilpotents + duals > MAX_EVEN_NILPOTENT:
        raise UsageError(f"verify adjoins {duals} dual generator(s) to at most {MAX_EVEN_NILPOTENT} even "
                         f"nilpotent generators: use --even-nil {MAX_EVEN_NILPOTENT - duals} or less")
    if group:
        checks = verify_group_structure(desc, sig, samples=args.samples, seed=args.seed)
        checks.append(group_commutator_identity(desc.kind, sig, samples=args.samples, seed=args.seed))
        span = lie_fixed_span_check(desc, sig)
        ok = span["spans_agree"] and span["group_fixed_dimension"] == span["expected_dimension"]
        checks.append(CheckOutcome(
            "fixed-span-agreement", PASS if ok else FAIL, 1,
            None if ok else {k: str(v) for k, v in span.items()},
            f"group and algebra fixed spans over the dual-number kernel, "
            f"dimension {span['group_fixed_dimension']} (expected {span['expected_dimension']})",
        ))
    else:
        checks = verify_structure(desc, sig, samples=args.samples, seed=args.seed)
    report = build_report(
        "verify", descriptor_summary(desc, group=group), signature_dict(sig),
        _config(args, group), list(desc.notes), checks,
    )
    return _emit(report, args.format)


def _cmd_fixed_basis(args) -> int:
    desc, group = _descriptor(args)
    if group:
        raise UsageError("fixed-basis works at the algebra level; use a lowercase name")
    sig = _signature(args, desc.conjugation)
    points, layout, expected = fixed_point_data(desc, sig)
    ok = len(points) == expected
    check = CheckOutcome(
        "fixed-dimension", PASS if ok else FAIL, 1, None,
        f"real dimension {len(points)}, expected {expected}",
    )
    extras = {
        "fixed_point_basis": {
            "dimension": len(points),
            "expected_dimension": expected,
            "basis": [matrix_literal(pt) for pt in points],
        }
    }
    report = build_report(
        "fixed-basis", descriptor_summary(desc, group=group), signature_dict(sig),
        _config(args, group, with_samples=False), list(desc.notes), [check], extras,
    )
    return _emit(report, args.format)


def _cmd_witness(args) -> int:
    desc, group = _descriptor(args)
    if group:
        raise UsageError("witness works at the algebra level; use a lowercase name")
    sig = _signature(args, desc.conjugation)
    try:
        result = representability_check(desc, sig)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    checks = []
    if result["mode"] == "span-comparison":
        checks.append(CheckOutcome(
            "fixed-equals-product-span",
            PASS if result["representable"] else FAIL, 1, None,
            "fixed points = (real coefficients) x (fixed vectors)",
        ))
    else:
        checks.append(CheckOutcome(
            "graded-witness-fixed",
            PASS if result["witness_fixed"] else FAIL, 1, None,
            "the paired odd element is fixed by the structure",
        ))
        checks.append(CheckOutcome(
            "graded-witness-outside-span",
            PASS if not result["witness_in_product_span"] else FAIL, 1, None,
            "the fixed element avoids the product span — no real form represents this structure",
        ))
    report = build_report(
        "witness", descriptor_summary(desc, group=group), signature_dict(sig),
        _config(args, group, with_samples=False), list(desc.notes), checks,
        extras={"witness_data": result},
    )
    return _emit(report, args.format)


def _cmd_compact_scan(args) -> int:
    kind = _matrix_kind(args.family, args.m, args.n)
    scan = compact_scan(kind)
    applicable = sum(1 for r in scan["rows"] if r["applicable"])
    check = CheckOutcome(
        "scan-complete", PASS, applicable,
        None, f"{applicable} structure instance(s) scanned",
    )
    report = build_report(
        "compact-scan",
        {"display": kind.display(), "family": kind.family, "m": kind.m, "n": kind.n},
        None, {}, scan["notes"], [check], extras={"scan": scan},
    )
    return _emit(report, args.format)


def positive_int(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1, got {count}: a check without samples decides nothing"
        )
    return count


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every :func:`main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="superforms",
        description="exact verification of real structures on matrix Lie "
                    "superalgebras and their supergroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("family", choices=("sl", "osp"), help="matrix family")
    shape.add_argument("m", type=int, help="even block size")
    shape.add_argument("n", type=int, help="odd block size (even for osp)")

    named = argparse.ArgumentParser(add_help=False, parents=[shape])
    named.add_argument("name", help="catalog name; lowercase for the algebra "
                                    "level, Capitalized for the group level")
    named.add_argument("--p", type=int, default=None, help="first signature parameter")
    named.add_argument("--q", type=int, default=None, help="second signature parameter")
    named.add_argument("--strict-printed", action="store_true",
                       help="use the literally-printed xi2 matrix (its failures are flagged, not fatal)")

    coeffs = argparse.ArgumentParser(add_help=False)
    coeffs.add_argument("--odd-pairs", type=int, default=1,
                        help="number of conjugate pairs of odd generators (default 1)")
    coeffs.add_argument("--odd-selfreal", type=int, default=0,
                        help="number of self-conjugate odd generators (standard conjugation only)")
    coeffs.add_argument("--even-nil", type=int, default=0,
                        help="number of even nilpotent generators (default 0)")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text")

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--samples", type=positive_int, default=50,
                          help="sample count, at least 1 (default 50)")
    sampling.add_argument("--seed", type=int, default=0, help="deterministic seed (default 0)")

    p_verify = sub.add_parser(
        "verify", parents=[named, coeffs, sampling, output],
        help="check the structure axioms on deterministic samples",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_fixed = sub.add_parser(
        "fixed-basis", parents=[named, coeffs, output],
        help="exact basis of the fixed points over the chosen coefficients",
    )
    p_fixed.set_defaults(func=_cmd_fixed_basis)

    p_witness = sub.add_parser(
        "witness", parents=[named, coeffs, output],
        help="representability: span equality (standard) or a fixed element "
             "outside the product span (graded)",
    )
    p_witness.set_defaults(func=_cmd_witness)

    p_scan = sub.add_parser(
        "compact-scan", parents=[shape, output],
        help="sweep all structures and parameters; exact Gram criteria for compactness",
    )
    p_scan.set_defaults(func=_cmd_compact_scan)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:           # argparse handles --help / usage errors
        return int(exc.code or 0)
    # A command's exact arithmetic makes cyclic garbage in no measurable
    # amount, but its many live objects make every collection slow, so the
    # cyclic collector pauses for the command and resumes as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"superforms: error: {exc}", file=sys.stderr)
        return 2
    except SamplingFailed as exc:
        print(f"superforms: sampling failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
