"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines, or `trisect selftest` for the same report from the CLI."""

import pytest

from trisect import acceptance


@pytest.mark.parametrize("number,name,fn", acceptance.CRITERIA, ids=[f"{n:02d}-{name}" for n, name, _ in acceptance.CRITERIA])
def test_criterion(number, name, fn, capsys):
    import time

    t0 = time.time()
    ok, detail, residual = fn()
    line = acceptance.CriterionResult(number, name, ok, detail, residual, time.time() - t0).line()
    with capsys.disabled():
        print(f"\n{line}", end="")
    assert ok, f"criterion {number} ({name}) failed: {detail}"
    assert residual == 0.0 or residual <= 1e-9


def test_injected_perturbation_fails_named_criterion(monkeypatch):
    bad = dict(acceptance.KASHAEV_CP2_FIXTURES)
    bad[3] = {"level": 3, "cp2": ["1", "0"], "s4": ["729", "0"]}
    monkeypatch.setattr(acceptance, "KASHAEV_CP2_FIXTURES", bad)
    ok, detail, _ = acceptance.criterion_11()
    assert not ok and "fixture" in detail


def test_run_all_subset():
    results = acceptance.run_all({10})
    assert len(results) == 1 and results[0].ok
    assert "criterion 10" in results[0].line()


def test_criterion_10_fails_when_the_euler_characteristic_crashes(monkeypatch):
    # only the TrisectError of a refused (g, k) counts as refusing k > g
    real = acceptance.euler_characteristic

    def crashing(g, k):
        if k > g:
            raise TypeError("crashed")
        return real(g, k)

    monkeypatch.setattr(acceptance, "euler_characteristic", crashing)
    [result] = acceptance.run_all({10})
    assert not result.ok and "TypeError" in result.detail


def test_failed_residual_check_names_the_algebra_and_its_report(monkeypatch):
    check = acceptance.hopf.check_hopf_axioms

    def broken(h):
        rep = check(h)
        return {**rep, "associativity": 2.0} if h.name == "C^Z/3" else rep

    monkeypatch.setattr(acceptance.hopf, "check_hopf_axioms", broken)
    ok, detail, residual = acceptance.criterion_1()
    assert not ok and residual == 2.0
    assert detail.startswith("C^Z/3 fails: {") and "'associativity': 2.0" in detail
