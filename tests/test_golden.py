"""Golden reports: the stdout of a fixed list of CLI commands, pinned by digest.

Every command runs in both output formats, and the sha256 of its stdout must
equal the entry in ``golden_digests.json``.  The list covers every
subcommand on both families, every catalog name, the group level, a graded
witness and the ``--strict-printed`` flag, and compact scans up to sl(5|3),
at sizes that run in a few seconds in all.  A change meant to alter reports regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` and names the entries it
changed.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from superforms.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")
FORMATS = ("text", "json")

COMMANDS = (
    "verify sl 1 1 sigma1 --samples 3",
    "verify sl 2 2 sigma1 --p 1 --q 2 --samples 2",
    "verify sl 2 2 omega2 --p 1 --q 1 --odd-pairs 2 --samples 2",
    "verify osp 1 2 xi1 --samples 3",
    "verify osp 2 2 psi1 --p 1 --q 0 --samples 2",
    "verify osp 2 2 xi2 --odd-selfreal 1 --samples 2",
    "verify sl 1 1 Omega2 --samples 2",
    "verify sl 2 1 Sigma1 --p 1 --q 0 --samples 2",
    "verify sl 2 2 Sigma4 --samples 2 --odd-pairs 0",
    "verify osp 1 2 Xi1 --samples 2",
    "verify osp 2 2 Psi2 --samples 2 --even-nil 1",
    "verify osp 2 2 xi2 --strict-printed --samples 3",
    "verify osp 2 2 Xi2 --strict-printed --samples 3",
    "verify sl 1 1 sigma1 --strict-printed --samples 3",
    "verify osp 1 2 psi1 --strict-printed --samples 3",
    "verify sl 2 1 Sigma1 --odd-selfreal 1 --even-nil 1 --samples 2",
    "verify osp 2 2 Psi1 --odd-pairs 2 --samples 2",
    "verify sl 2 2 Omega2 --odd-pairs 2 --even-nil 1 --samples 2",
    "fixed-basis sl 1 1 sigma1",
    "fixed-basis sl 1 1 sigma1 --odd-pairs 2",
    "fixed-basis sl 2 2 sigma2",
    "fixed-basis sl 2 2 sigma3",
    "fixed-basis sl 2 2 sigma4",
    "fixed-basis sl 2 2 omega1",
    "fixed-basis sl 2 1 omega2 --p 1 --q 0",
    "fixed-basis sl 2 2 omega3",
    "fixed-basis osp 2 2 xi1 --p 1",
    "fixed-basis osp 2 2 xi2 --p 0",
    "fixed-basis osp 2 2 psi1 --p 1 --q 0",
    "fixed-basis osp 2 2 psi2",
    "fixed-basis sl 2 2 omega2 --odd-pairs 2 --even-nil 1",
    "fixed-basis sl 2 2 sigma1 --odd-pairs 2 --odd-selfreal 1",
    "fixed-basis osp 2 2 xi2 --strict-printed --odd-pairs 2",
    "witness sl 1 1 omega2",
    "witness sl 2 1 sigma1 --p 1 --q 0",
    "witness sl 2 2 sigma2",
    "witness osp 1 2 xi1",
    "witness osp 1 2 psi1",
    "witness osp 2 2 psi2",
    # size-1 orbits of both signs; a standard osp witness; a graded one at two pairs
    "witness sl 3 2 sigma1 --odd-pairs 2 --odd-selfreal 2 --even-nil 1",
    "witness osp 2 2 xi1 --odd-pairs 2 --odd-selfreal 1 --even-nil 1",
    "witness osp 2 2 psi1 --odd-pairs 2 --even-nil 1",
    "compact-scan sl 1 1",
    "compact-scan sl 2 1",
    "compact-scan sl 2 2",
    "compact-scan osp 1 2",
    "compact-scan osp 2 2",
    "compact-scan sl 4 2",
    "compact-scan osp 2 4",
    "compact-scan sl 5 3",
)


def report_digest(command: str, fmt: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(command.split() + ["--format", fmt])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def entry(command: str, fmt: str) -> str:
    return f"{command} --format {fmt}"


@pytest.fixture(scope="module")
def stored():
    return json.loads(DIGESTS.read_text())


def test_digest_file_lists_exactly_the_commands(stored):
    assert sorted(stored) == sorted(entry(c, f) for c in COMMANDS for f in FORMATS)


@pytest.mark.parametrize("command", COMMANDS)
def test_report_bytes_unchanged(command, stored):
    for fmt in FORMATS:
        assert report_digest(command, fmt) == stored[entry(command, fmt)], entry(command, fmt)


if __name__ == "__main__":
    digests = {entry(c, f): report_digest(c, f) for c in COMMANDS for f in FORMATS}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
