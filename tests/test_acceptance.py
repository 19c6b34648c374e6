"""Acceptance gate: one test per criterion, at the stated tolerances.

The criterion implementations live in the cli module (the selftest
subcommand runs the same list); here each one becomes its own test so a
failure pinpoints the criterion.  The final test runs the selftest command
twice in fresh processes and compares the report bytes.
"""

import subprocess
import sys

from stratadyn import cli
from tests.test_cli import ENV


def _run(number):
    name, fn = cli.ACCEPTANCE[number - 1]
    detail = fn()
    assert detail, name


def test_01_dimension_formula():
    _run(1)


def test_02_duality():
    _run(2)


def test_03_filtration_dimensions():
    _run(3)


def test_04_unique_stable_vertex():
    _run(4)


def test_05_reduction_kernel():
    _run(5)


def test_06_relation_orthogonality():
    _run(6)


def test_07_cover_counts():
    _run(7)


def test_08_degeneration_degrees():
    _run(8)


def test_09_dynamical_degrees():
    _run(9)


def test_10_forgetful_filtration():
    _run(10)


def test_11_determinism():
    _run(11)


def test_11_selftest_reports_byte_identical():
    cmd = [sys.executable, "-m", "stratadyn.cli", "selftest"]
    first = subprocess.run(cmd, capture_output=True, env=ENV)
    second = subprocess.run(cmd, capture_output=True, env=ENV)
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0, second.stdout.decode()
    assert first.stdout == second.stdout
    assert first.stdout.decode().endswith("selftest: 11 passed, 0 failed\n")
