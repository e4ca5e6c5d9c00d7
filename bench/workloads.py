"""The benchmark's workloads: seeded CLI inputs and checks on their outputs.

An op is one call of the public entry point ``prolate.cli.main(argv)``. A
workload turns a seed into a stream of argv lists; the harness runs each one
twice in a row, so every input is repeated (checked for identical output)
and a traced run can pair an untraced op with a traced one.

Bandwidths are drawn stratified: the range is cut into equal strata visited
in bit-reversed order, with a uniform draw inside each. Any prefix of the
stream then spreads over the whole range, which keeps the op-time mix, and
so the medians, nearly the same from seed to seed.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

WIDTH_HEADER = "N,W,eps,width,thm1,thm2,eq2,eq3,eq6"
SWEEP_HEADER = "N,W,eps,width,bound_thm1,bound_thm2,gap,advisory"
SWEEP_EPS = (1e-3, 1e-8, 1e-13)  # the CLI's default eps list
N_CHECKS = {"all": 28, "spectrum": 9}  # `verify` check counts at the seed commit
DPSS_W_MAX = 2.0**-6  # dpss oracle only for small W, where it is cheap
DPSS_SAMPLE = 3


def _stratified(rng: random.Random, lo: float, hi: float, strata: int, log: bool = False):
    """Endless draws from [lo, hi], one per stratum in bit-reversed stratum order."""
    bits = strata.bit_length() - 1  # strata is a power of two
    order = [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(strata)]
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    i = 0
    while True:
        u = a + (order[i % strata] + rng.random()) / strata * (b - a)
        yield math.exp(u) if log else u
        i += 1


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def inputs(self):
        """Endless stream of argv lists for ``prolate.cli.main``, made from the seed."""
        raise NotImplementedError

    def check(self, ops: list[dict]) -> list[list[str]]:
        """Problems found in each op's output, one list per op."""
        raise NotImplementedError


def _csv(text: str) -> tuple[str, list[dict]]:
    lines = text.splitlines()
    if not lines:
        return "", []
    cols = lines[0].split(",")
    return lines[0], [dict(zip(cols, line.split(","))) for line in lines[1:]]


def _repeat_problems(ops: list[dict]) -> list[list[str]]:
    """An input's output must be identical every time it is run."""
    first: dict[tuple, str] = {}
    out = []
    for op in ops:
        key = tuple(op["argv"])
        ref = first.setdefault(key, op["stdout"])
        out.append([] if op["stdout"] == ref else ["output differs on a repeat of the input"])
    return out


class Width(Workload):
    name = "width-65536"

    def inputs(self):
        n = 1024 if self.smoke else 65536
        for w in _stratified(random.Random(self.seed), 1 / 16, 7 / 16, 4):
            yield ["width", "--n", str(n), "--eps", "1e-13", "--w", repr(w)]

    def check(self, ops):
        problems = _repeat_problems(ops)
        for op, bad in zip(ops, problems):
            header, rows = _csv(op["stdout"])
            if header != WIDTH_HEADER or len(rows) != 1:
                bad.append("unexpected width CSV layout")
                continue
            row = rows[0]
            width = int(row["width"])
            if float(row["W"]) != float(op["argv"][-1]):
                bad.append("W in the row differs from the input")
            if not 0 < width <= min(int(row["thm1"]), int(row["thm2"])):
                bad.append(f"width {width} outside (0, min(thm1, thm2)]")
        return problems


class SweepFig3(Workload):
    name = "sweep-fig3"

    def inputs(self):
        n = 256 if self.smoke else 4096
        for w in _stratified(random.Random(self.seed), 2.0**-10, 2.0**-2, 16, log=True):
            yield ["sweep", "--mode", "custom", "--n", str(n), "--w", repr(w)]

    def check(self, ops):
        problems = _repeat_problems(ops)
        small: dict[tuple, tuple[int, float, int]] = {}  # argv -> (N, W, width at 1e-3)
        for op, bad in zip(ops, problems):
            header, rows = _csv(op["stdout"])
            if header != SWEEP_HEADER or [float(r["eps"]) for r in rows] != list(SWEEP_EPS):
                bad.append("unexpected sweep CSV layout")
                continue
            for row in rows:
                width, gap = int(row["width"]), int(row["gap"])
                if gap < 0 or width > int(row["bound_thm2"]):
                    bad.append(f"eps={row['eps']}: width {width} exceeds a bound")
            n, w = int(rows[0]["N"]), float(rows[0]["W"])
            if w <= DPSS_W_MAX:
                small[tuple(op["argv"])] = (n, w, int(rows[0]["width"]))
        # independent oracle on a seeded sample: scipy's dpss concentration ratios
        from scipy.signal.windows import dpss

        sample = sorted(small)
        random.Random(self.seed).shuffle(sample)
        wrong = set()
        for argv in sample[:DPSS_SAMPLE]:
            n, w, width = small[argv]
            kmax = min(n, math.floor(2 * n * w) + 2 * width + 4)
            _, ratios = dpss(n, n * w, Kmax=kmax, return_ratios=True)
            eps = SWEEP_EPS[0]
            if int(np.count_nonzero((ratios > eps) & (ratios < 1 - eps))) != width:
                wrong.add(argv)
        for op, bad in zip(ops, problems):
            if tuple(op["argv"]) in wrong:
                bad.append("eps=1e-3 width differs from scipy dpss")
        return problems


class VerifyAll(Workload):
    name = "verify-all"

    @property
    def suite(self) -> str:
        return "spectrum" if self.smoke else "all"

    def inputs(self):
        while True:
            yield ["verify", "--suite", self.suite, "--seed", str(self.seed % 2**32)]

    def check(self, ops):
        problems = _repeat_problems(ops)
        for op, bad in zip(ops, problems):
            try:
                summary = json.loads(op["stdout"])
            except json.JSONDecodeError:
                bad.append("verify output is not JSON")
                continue
            if not summary.get("passed"):
                bad.append(f"verify failed: {summary.get('failures')}")
            if summary.get("n_checks") != N_CHECKS[self.suite]:
                bad.append(f"n_checks {summary.get('n_checks')} != {N_CHECKS[self.suite]}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Width, SweepFig3, VerifyAll)}
