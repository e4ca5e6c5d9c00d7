"""Scope of the store that one `verify` run shares across its suites."""

from collections import Counter

import prolate.displacement as disp
import prolate.spectrum as spec
from prolate.verification import run_suite


def test_one_run_solves_each_instance_once_and_the_next_run_again(monkeypatch):
    calls = Counter()
    memo = {}  # the test's own memo: the second run counts calls, not time

    def counting(name):
        solve = getattr(spec, name)

        def wrapped(params, *args):
            key = (name, params.n, params.w, *args)
            calls[key] += 1
            if key not in memo:
                memo[key] = solve(params, *args)
            return memo[key]

        monkeypatch.setattr(spec, name, wrapped)

    counting("dense_spectrum")
    counting("tridiagonal_spectrum")
    svd = disp.DisplacementSystem.singular_values

    def counting_svd(system):
        calls["svd", system.params.n, system.params.w, system.L] += 1
        return svd(system)

    monkeypatch.setattr(disp.DisplacementSystem, "singular_values", counting_svd)

    def solves():
        """Call counts of dense spectra, full tridiagonal spectra and SVDs, by key."""
        full = ("tridiagonal_spectrum", 0)
        return [
            {k: c for k, c in calls.items() if k[0] == "dense_spectrum"},
            {k: c for k, c in calls.items() if (k[0], *k[3:]) == (*full, k[1] - 1)},
            {k: c for k, c in calls.items() if k[0] == "svd"},
        ]

    assert all(r.passed for r in run_suite("all", seed=3))
    first = solves()
    assert [len(d) for d in first] == [17, 18, 3]
    assert all(set(d.values()) == {1} for d in first)

    # a new run keeps nothing of the last one: every solve happens again
    run_suite("all", seed=3)
    again = solves()
    assert [set(d) for d in again] == [set(d) for d in first]
    assert all(set(d.values()) == {2} for d in again)
