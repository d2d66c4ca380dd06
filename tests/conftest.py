"""Shared fixtures, and a one-line verdict per acceptance criterion printed
after the test run."""

import shutil

import pytest

from camopt import native


@pytest.fixture
def no_compiler(monkeypatch):
    """A process that has not built the library yet, on a host without cc;
    the builds it attempts are counted."""
    builds = []
    real_build = native.build

    def counting_build(*args):
        builds.append(1)
        return real_build(*args)

    monkeypatch.setattr(shutil, "which", lambda name: None)
    monkeypatch.setattr(native, "build", counting_build)
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setattr(native, "_tried", False)
    monkeypatch.setattr(native, "_error", None)
    return builds


CRITERIA = {
    1: "autodiff and pose-loss gradients match finite differences",
    2: "attribute formulas match brute-force recomputation",
    3: "visibility agrees with a ray-cast reference on >=90% of voxels",
    4: "hybrid median final uc beats both ablations",
    5: "hybrid improves on initialization in uc and angle quality",
    6: "final uc spread <= half the initial spread across seeds",
    7: "running-min loss monotone; commits strictly improve",
    8: "one outer iteration under one second near 1000 voxels",
    9: "metric identities at the coverage extremes",
    10: "annealing acceptance matches the Boltzmann rule",
}

_RANK = {"FAIL": 2, "SKIP": 1, "PASS": 0}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            try:
                num = int(nodeid.split("test_criterion_")[1].split("_")[0])
            except ValueError:
                continue
            outcome = getattr(rep, "outcome", None)
            if outcome not in ("passed", "failed", "skipped"):
                continue  # deselected entries and other non-report objects
            if outcome == "passed" and getattr(rep, "when", "call") != "call":
                continue  # setup/teardown successes say nothing by themselves
            verdict = {"passed": "PASS", "skipped": "SKIP"}.get(outcome, "FAIL")
            prev = verdicts.get(num)
            if prev is None or _RANK[verdict] > _RANK[prev]:
                verdicts[num] = verdict
    if not verdicts:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(verdicts):
        label = CRITERIA.get(num, "")
        terminalreporter.write_line(
            f"criterion {num:2d}: {label:<58s} {verdicts[num]}")
