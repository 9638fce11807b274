"""Report assembly and rendering (text and byte-deterministic JSON).

Reports are plain dicts with a fixed construction order and only
JSON-primitive leaf values (exact numbers are rendered as literal strings),
so the same inputs always serialize to the same bytes.  No timestamps, no
environment data.  A check's result is a :class:`CheckOutcome`, an immutable
``NamedTuple`` that enters a report through ``_asdict()``, in field order.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, NamedTuple, Optional

from .algebra import AlgebraSignature

TOOL_NAME = "superforms"
TOOL_VERSION = "0.1.0"

PASS, FAIL, FLAGGED = "pass", "fail", "flagged"


class CheckOutcome(NamedTuple):
    name: str
    status: str                      # pass | fail | flagged
    samples: int
    witness: Optional[Dict[str, str]] = None
    note: Optional[str] = None


class Tally:
    """Counts the samples and failures of one sampled check, keeping the
    witness of its first failure, and turns them into a CheckOutcome."""

    def __init__(self, name: str, flagged: bool):
        self.name = name
        self.flagged_expected = flagged
        self.samples = 0
        self.failures = 0
        self.witness: Optional[Dict[str, str]] = None

    def record(self, ok: bool, witness: Callable[[], Dict[str, str]]):
        self.samples += 1
        if not ok:
            self.failures += 1
            if self.witness is None:
                self.witness = witness()

    def outcome(self) -> CheckOutcome:
        if self.failures == 0:
            status, note = PASS, None
        elif self.flagged_expected:
            status = FLAGGED
            note = f"{self.failures} failure(s), expected for this variant"
        else:
            status, note = FAIL, f"{self.failures} failure(s)"
        return CheckOutcome(self.name, status, self.samples, self.witness, note)


def verdict_of(checks: List[CheckOutcome]) -> str:
    if any(c.status == FAIL for c in checks):
        return FAIL
    return PASS


def signature_dict(sig: AlgebraSignature) -> Dict:
    return {
        "odd_pairs": sig.odd_pairs,
        "odd_selfreal": sig.odd_selfreal,
        "even_nilpotents": sig.even_nilpotents,
        "conjugation": sig.conjugation,
    }


def build_report(command: str, target: Dict, signature: Optional[Dict], config: Dict,
                 notes: List[str], checks: List[CheckOutcome], extras: Optional[Dict] = None) -> Dict:
    counts = {
        "pass": sum(1 for c in checks if c.status == PASS),
        "fail": sum(1 for c in checks if c.status == FAIL),
        "flagged": sum(1 for c in checks if c.status == FLAGGED),
    }
    report = {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "command": command,
        "target": target,
        "signature": signature,
        "config": config,
        "notes": list(notes),
        "checks": [c._asdict() for c in checks],
        "summary": {**counts, "verdict": verdict_of(checks)},
    }
    if extras:
        report.update(extras)
    return report


def to_json(report: Dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


_STATUS_TAG = {PASS: "[PASS]", FAIL: "[FAIL]", FLAGGED: "[FLAG]"}


def to_text(report: Dict) -> str:
    lines = []
    target = report.get("target") or {}
    headline = target.get("display") or report["command"]
    lines.append(f"{TOOL_NAME} {report['command']}: {headline}")
    sig = report.get("signature")
    if sig:
        lines.append(
            "coefficients: {odd_pairs} odd pair(s), {odd_selfreal} self-real odd, "
            "{even_nilpotents} even nilpotent(s), {conjugation} conjugation".format(**sig)
        )
    config = report.get("config") or {}
    if config:
        lines.append("config: " + ", ".join(f"{k}={v}" for k, v in config.items()))
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    for check in report.get("checks", []):
        tag = _STATUS_TAG.get(check["status"], "[????]")
        line = f"{tag} {check['name']} ({check['samples']} samples)"
        if check.get("note"):
            line += f" — {check['note']}"
        lines.append(line)
        witness = check.get("witness")
        if witness:
            for k, v in witness.items():
                lines.append(f"       {k}: {v}")
    for key in ("fixed_point_basis", "witness_data", "scan"):
        block = report.get(key)
        if block is None:
            continue
        lines.append(f"{key}:")
        lines.extend(_render_block(block, indent="  "))
    summary = report.get("summary") or {}
    if summary:
        lines.append(
            "summary: {pass} pass, {fail} fail, {flagged} flagged — verdict: {verdict}".format(**summary)
        )
    return "\n".join(lines) + "\n"


def _render_block(block, indent: str) -> List[str]:
    lines = []
    if isinstance(block, dict):
        for k, v in block.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.extend(_render_block(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {v}")
    elif isinstance(block, list):
        for item in block:
            if isinstance(item, (dict, list)):
                lines.append(indent + "-")
                lines.extend(_render_block(item, indent + "  "))
            else:
                lines.append(f"{indent}- {item}")
    else:
        lines.append(f"{indent}{block}")
    return lines


def render(report: Dict, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    return to_text(report)
