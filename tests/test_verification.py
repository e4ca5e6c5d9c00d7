"""The checks of `verify`: their stable ids, what the Parseval check catches, and
the scope of the store that one run shares across its suites."""

from collections import Counter

import numpy as np
import pytest

import prolate.bounds as bnd
import prolate.chebsinc as cs
import prolate.displacement as disp
import prolate.spectrum as spec
from prolate import verification
from prolate.verification import run_suite


# the ids CI pins on, in run order: replacing or dropping a check shows here
CHECK_IDS = [
    "kernel.sinc-bound", "spectrum.rayleigh-parseval", "kernel.sinc-identity",
    "kernel.prolate-structure", "spectrum.trace", "spectrum.ordering",
    "spectrum.interlacing", "spectrum.symmetry", "spectrum.route-agreement",
    "bounds.width-le-bounds", "bounds.envelope-containment", "bounds.sum-containment",
    "bounds.prior-dominance", "bounds.pswf-identity", "bounds.proxy-containment",
    "displacement.residual", "displacement.norm", "displacement.zolotarev-invariance",
    "displacement.gamma-n-squared", "displacement.sv-decay", "displacement.gram-limit",
    "displacement.loewner", "displacement.partition",
    "chebsinc.nodes", "chebsinc.interp-chain", "chebsinc.lowrank",
    "chebsinc.monomial-agreement", "chebsinc.derivative-bound",
]


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

    results = run_suite("all", seed=3)
    assert [r.check_id for r in results] == CHECK_IDS
    assert all(r.passed for r in results)
    first = solves()
    assert [len(d) for d in first] == [17, 18, 3]
    assert all(set(d.values()) == {1} for d in first)

    # a new run keeps nothing of the last one: every solve happens again
    run_suite("all", seed=3)
    again = solves()
    assert [set(d) for d in again] == [set(d) for d in first]
    assert all(set(d.values()) == {2} for d in again)


def _rayleigh_parseval(seed):
    return verification._check_rayleigh_parseval(np.random.default_rng(seed))


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_rayleigh_parseval_check_passes(seed):
    result = _rayleigh_parseval(seed)
    assert result.passed, result.detail


def test_rayleigh_parseval_check_fails_on_a_wrong_weight_or_parity(monkeypatch):
    weights, squares = spec._parseval_weights, spec._parseval_squares

    def full_weight_at_p(params, reflected, parity):
        w = weights(params, reflected, parity)
        if params.n % 2:
            w[-1] *= 2.0  # bins 0..P
        elif parity == 1:
            w[0] *= 2.0  # bins P..1, backwards
        return w

    def other_parity_at_even_n(params, vecs, parity):
        return squares(params, vecs, 1 - parity if params.n % 2 == 0 else parity)

    for name, mutant in [("_parseval_weights", full_weight_at_p),
                         ("_parseval_squares", other_parity_at_even_n)]:
        with monkeypatch.context() as m:
            m.setattr(spec, name, mutant)
            assert not _rayleigh_parseval(0).passed, name


def test_per_order_bounds_checks_fail_on_a_weakened_decay_law(monkeypatch):
    # the checks evaluate one law per instance; a decay law at 1/100 of its
    # value must still reach every order's envelope and every sum's cap
    store = verification._RunStore()
    checks = [verification._check_envelope_containment, verification._check_sum_containment]
    assert all(check(store).passed for check in checks)
    decay = bnd._decay
    weak = lambda d, terms, summed=False: decay(d, terms, summed) / 100.0
    monkeypatch.setattr(bnd, "_decay", weak)
    for check in checks:
        assert not check(store).passed, check.__name__


def test_monomial_agreement_fails_on_a_shifted_matrix(monkeypatch):
    assert verification._check_mono_bary_agreement().passed
    approx = cs.lowrank_block_approx

    def shifted(params, k):
        rep = approx(params, k)
        rep.matrix = rep.matrix + 1e-7
        return rep

    monkeypatch.setattr(cs, "lowrank_block_approx", shifted)
    assert not verification._check_mono_bary_agreement().passed
