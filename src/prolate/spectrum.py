"""DPSS eigenvalue computation and transition-region statistics.

Two routes compute the eigenvalues ``1 > lambda_0 > ... > lambda_{N-1} > 0``
of the prolate matrix:

* a dense route (symmetric eigensolver on the materialized matrix), used as
  an oracle at moderate N, and
* a tridiagonal route that scales to N ~ 2**16: the prolate matrix commutes
  with a symmetric tridiagonal matrix T with

      T[n, n]   = ((N-1)/2 - n)**2 * cos(2*pi*W)
      T[n, n+1] = (n+1)*(N-1-n)/2,

  so the eigenvector for concentration order k is the T-eigenvector at the
  (k+1)-th largest T-eigenvalue. T is persymmetric, so that eigenvector is
  even or odd about the middle as k is, and all the work is done in two
  tridiagonal parity blocks of about N/2: order k is the (k//2)-th largest
  eigenvalue of block k % 2. A slice that holds every order of a block
  takes all of that block's eigenvectors from one LAPACK MRRR call
  (``stemr``, Dhillon and Parlett, Linear Algebra Appl. 387, 2004): at
  N = 4096 a block of 2048 takes about 0.35 s, against 1.1 s order by order.
  Otherwise bisection in the block locates each eigenvalue only coarsely, to
  a small fraction of the gap to its same-parity neighbours, and inverse
  iteration with the block (LAPACK ``stein``, one shift per call, so that no
  vector is re-orthogonalized against the others) polishes the half vector;
  MRRR restricted to a subset of indices was slower than this at every
  slice width measured, 1 to 512 orders. Each half vector is mirrored back
  to length N. lambda_k is
  its Rayleigh quotient against B, a Parseval sum over one forward real FFT:
  with B^ the DFT of B's circulant embedding of size 2P (P the least power
  of two >= N; B^ is the DCT-I of B's first column, built once per
  instance), s^T B s = (1/2P) sum_k B^_k |S_k|^2. At even N the vector is
  even or odd about its middle, so |S_k| is twice the DCT-II of its half
  (of the alternated half at bin P - k for odd vectors), one real FFT of
  length P; odd N transforms the whole vector at length 2P. No product
  with B and no inverse transform is formed, and a slice's vectors go
  through in chunks of a fixed number of entries, so the workspace does
  not grow with the slice. At N = 2**16 one Rayleigh quotient takes about
  1.1 ms instead of the 5.5 ms of an FFT product and its inverse.

A slice bisects by index, which first narrows the whole block down to about
ulp * ||T||. A one-order probe of a width search bisects by value inside a
window predicted to hold its T-eigenvalue chi_k instead: through the
transition chi_k is nearly linear in logit(lambda_k), with slope
N sin(2 pi W)/(2 pi) and value (N^2 - 1)/4 cos(2 pi W) at lambda = 1/2. The
eigenvalue found there is taken only when LAPACK's Sturm counts prove it is
index k // 2 of its block: exactly one in the window and exactly k // 2
above it. Otherwise the probe bisects by index as a slice does, so a wrong
prediction costs time, never a wrong order. At N = 2**16 a probe costs
about 11 ms on a 2-vCPU Xeon VM (window bisection and Sturm count 5.8,
``stein`` 2.7, Rayleigh quotient 1.0, a quarter of building B^ 1.2).

Eigenvalues above 1/2 are reflected exactly. With D = diag((-1)**i), the
instance at bandwidth 1/2 - W has T(1/2 - W) = -D T(W) D and prolate matrix
D (I - B) D, so its order N-1-k has the vector D s of order k here and the
eigenvalue ``1 - lambda_k = s^T (I - B) s``. Orders below floor(2NW) take
``1 - lambda`` as that Rayleigh quotient against I - B (first column
1 - 2W, -g(1), -g(2), ...): small values are computed directly rather than
by cancellation, and no second instance is built: I - B has the symbol
1 - B^. Where the smaller of lambda and 1 - lambda is at most 1e-2, its
absolute error stays below 2e-16 (worst seen 1.5e-16 over about 2,900
orders, rms 3.6e-17; relative, up to 5e-2 just above the 1e-15 floor)
against 60-digit eigenvalues at N <= 48 and exact Rayleigh quotients of the
computed vectors at N = 20 to 4096, odd and even; above 1e-2, its relative
error stays below 1e-14 (worst seen 3.8e-15).

A transition width needs only the two ends of the run in (eps, 1 - eps).
Computed lambda_k is monotone in k, so :func:`transition_widths` finds each
end by a search over k, one eigenvalue (a probe) per step, steered by
Slepian's line (Bell Syst. Tech. J. 57, 1978: lambda_k ~ 1/(1 + e^(pi b)),
so logit(lambda_k) is nearly linear in k and odd about 2NW - 1/2) and by
the probes' mirror images: 4 probes in 2 rounds at N = 2**16 and one eps.
The search, :func:`_search_runs`, names no solver: it calls a probe with one
or two (order, window) pairs, which returns lambda_k, 1 - lambda_k and chi_k
of each, and :func:`_solve_probes` is that probe. The bisection and
``stein`` of a round's second order always run on one worker thread beside
the first's (LAPACK releases the GIL, see below; with one CPU the two calls
share it). The rest follows on the calling thread, so the probes do not
depend on the CPUs.

The continuous (PSWF) eigenvalues are reached through a discrete proxy:
the instance (N, c/(pi N)) has eigenvalues within the closed-form radius
``bounds.proxy_delta`` of them, so :func:`pswf_proxy` and
:func:`proxy_width_interval` are spectrum computations on that instance.

The module imports no scipy, so commands that solve nothing start without
it; the first solve loads ``scipy.linalg``. ``eigh_tridiagonal`` is a
forwarder that imports scipy's routine on the first call and passes every
argument through. :func:`_stebz` and :func:`_stein` each make one LAPACK
call, ``stebz`` to bisect (order "E", its ``iblock`` and ``isplit`` kept
inside) and ``stein`` at one shift in one unreduced block, and raise
NumericalError on a nonzero ``info``. They give what scipy's f2py wrappers
``scipy.linalg.lapack.dstebz`` and ``dstein`` give, bit for bit, but call
LAPACK by ``ctypes`` through the function pointers of
``scipy.linalg.cython_lapack``, which releases the GIL for the call: the
f2py wrappers hold it, so two threads bisecting through them take as long
as one after the other. Each call allocates its own arguments, outputs and
workspaces and keeps none of them, so on a 3 x 3 block a call costs about
10 us against f2py's 1.3 us for ``stebz`` and 9 us against 1 us for
``stein`` (2-vCPU Xeon VM).
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import proxy_delta
from .errors import CapacityError, NumericalError, ParameterError
from .kernel import (
    RESOLUTION_FLOOR,
    ProlateParams,
    _check_eps,
    build_prolate_matrix,
    dense_cap,
    sinc_kernel,
)

__all__ = [
    "SpectrumSlice",
    "TransitionReport",
    "dense_spectrum",
    "tridiagonal_spectrum",
    "transition_width",
    "transition_widths",
    "eigensum_head",
    "eigensum_tail",
    "PSWFProxy",
    "pswf_proxy",
    "proxy_width_interval",
]

#: width counts at or below this epsilon carry a +-1 advisory uncertainty
ADVISORY_EPS = 1e-12

#: entries per chunk of a slice's columns that are mirrored or transformed at
#: once (4 MiB of doubles), so the workspace does not grow with the slice
_CHUNK_ENTRIES = 2**19


# LAPACK calls: importing scipy.linalg is about half of the CLI's
# start-up, so it waits for the first call (see the module docstring)
@functools.cache
def _lapack(name: str):
    """LAPACK routine ``name`` of scipy.linalg.cython_lapack as a ctypes
    function of pointers, which releases the GIL while it runs (scipy's f2py
    wrappers hold it)."""
    from scipy.linalg.cython_lapack import __pyx_capi__

    capsule, api = __pyx_capi__[name], ctypes.pythonapi
    signature = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    c_type = signature(capsule)  # b"void (char *, char *, int *, ...)"
    function = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * (c_type.count(b",") + 1))
    return function(address(capsule, c_type))


# the whole-block solve of _block_eigenvectors; bench/tracing.py wraps this name
def eigh_tridiagonal(*args, **kwargs):
    from scipy.linalg import eigh_tridiagonal
    return eigh_tridiagonal(*args, **kwargs)


@dataclass
class SpectrumSlice:
    """A contiguous run of computed eigenvalues ``{(k, lambda_k)}``.

    ``lam`` holds lambda_k clamped to [0, 1]; ``comp`` holds 1 - lambda_k,
    computed directly for the orders marked ``via_complement`` (those below
    floor(2NW) on the tridiagonal route) as a Rayleigh quotient against
    I - B, not as the rounded difference.
    """

    params: ProlateParams
    kmin: int
    kmax: int
    lam: np.ndarray
    comp: np.ndarray
    via_complement: np.ndarray = field(repr=False)

    @property
    def entries(self) -> list[tuple[int, float]]:
        return [(self.kmin + i, float(v)) for i, v in enumerate(self.lam)]

    def lam_at(self, k: int) -> float:
        if not (self.kmin <= k <= self.kmax):
            raise ParameterError(f"k = {k} outside slice range [{self.kmin}, {self.kmax}]")
        return float(self.lam[k - self.kmin])

    def sum_lambdas(self) -> float:
        """Compensated sum of lambda over the slice.

        Complement-route entries contribute 1 - mu with mu summed exactly, so
        parts of lambda below the double roundoff of 1.0 are not lost.
        """
        m = self.via_complement
        head = int(np.count_nonzero(m)) - math.fsum(self.comp[m].tolist())
        return head + math.fsum(self.lam[~m].tolist())


@dataclass(frozen=True)
class TransitionReport:
    """Count of eigenvalues inside (eps, 1 - eps).

    ``k_first``/``k_last`` delimit the run; both are None when it is empty.
    ``advisory`` is set when eps is at most ``ADVISORY_EPS``, near enough the
    eigenvalue resolution floor that the count carries a +-1 uncertainty.
    ``probes`` lists the orders that the call computed, in the order it
    computed them, shared by all thresholds of the call; it is a record of
    the work, not of the result, and takes no part in comparisons.
    """

    params: ProlateParams
    eps: float
    width: int
    k_first: int | None
    k_last: int | None
    advisory: bool
    probes: tuple[int, ...] = field(default=(), compare=False, repr=False)


def _tridiag_bands(n: int, w: float) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(n, dtype=np.float64)
    diag = ((n - 1) / 2.0 - idx) ** 2 * math.cos(2.0 * math.pi * w)
    off = idx[1:] * (n - idx[1:]) / 2.0
    return diag, off


def _parity_block(
    diag: np.ndarray, off: np.ndarray, parity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bands of T restricted to vectors of one parity (0 even, 1 odd).

    T is persymmetric, so T maps vectors with v[n-1-i] = (-1)**parity v[i]
    to themselves. On such a vector, the first m = n // 2 rows (and, for odd
    n, the middle row) act on the first half, through a tridiagonal of size
    ceil(n/2) (even) or n // 2 (odd):

    * even n: the last row meets its own mirror image, so its diagonal gains
      +off[m-1] (even) or -off[m-1] (odd);
    * odd n, even parity: the middle component couples to both halves; in
      the variable middle/sqrt(2) the block is symmetric with its last
      off-diagonal scaled by sqrt(2);
    * odd n, odd parity: the middle component is 0 and the block is the
      leading m x m part of T.
    """
    m = diag.size // 2
    if diag.size % 2 == 0:
        d = diag[:m].copy()
        d[-1] += off[m - 1] if parity == 0 else -off[m - 1]
        return d, off[: m - 1]
    if parity == 1:
        return diag[:m], off[: m - 1]
    e = off[:m].copy()
    if m:
        e[-1] *= math.sqrt(2.0)
    return diag[: m + 1], e


def _column_chunks(count: int, length: int) -> list[slice]:
    """Runs of at most max(1, _CHUNK_ENTRIES // length) of ``count`` columns of
    length ``length``, so that per-column work on a slice needs a bounded
    workspace however many columns it has."""
    step = max(1, _CHUNK_ENTRIES // length)
    return [slice(j, j + step) for j in range(0, count, step)]


def _mirror(n: int, parity: int, out: np.ndarray) -> None:
    """Turn the parity-block vectors in the first rows of ``out`` (n x K) into
    unit length-n vectors, in place.

    The first half is reflected into the second with the parity's sign; for
    odd n the middle entry is sqrt(2) times the even block's last (see
    :func:`_parity_block`), or 0 for the odd block.
    """
    m = n // 2
    if parity == 0:
        out[n - m :] = out[:m][::-1]
    else:
        np.negative(out[:m][::-1], out=out[n - m :])
    if n % 2:
        if parity == 0:
            out[m] *= math.sqrt(2.0)
        else:
            out[m] = 0.0
    for cols in _column_chunks(out.shape[1], n):
        out[:, cols] /= np.linalg.norm(out[:, cols], axis=0)


@functools.lru_cache(maxsize=1)
def _parity_blocks(params: ProlateParams) -> tuple[tuple[np.ndarray, np.ndarray, float], ...]:
    """Bands (read-only) of T's parity blocks 0 and 1, each with a bound above
    its eigenvalues (twice the block's infinity norm), built once per instance
    and shared by all the probes of a width count."""
    diag, off = _tridiag_bands(params.n, params.w)
    blocks = []
    for parity in (0, 1):
        d, e = _parity_block(diag, off, parity)
        d.flags.writeable = e.flags.writeable = False
        norm = np.max(np.abs(d), initial=0.0) + 2.0 * np.max(np.abs(e), initial=0.0)
        blocks.append((d, e, 2.0 * float(norm)))
    return tuple(blocks)


def _concentration_eigenvectors(
    params: ProlateParams, klo: int, khi: int
) -> tuple[np.ndarray, np.ndarray]:
    """T-eigenvalues and T-eigenvectors for concentration orders klo..khi, in
    k order (the vectors as columns).

    Order k has parity (-1)**k and belongs to the (k // 2)-th largest
    eigenvalue of the parity block k % 2, so each order is bisected for and
    solved in a tridiagonal of about n/2, or, where the slice holds the whole
    block, solved with all of that block's orders in one call.
    """
    n = params.n
    chis, vecs = np.empty(khi - klo + 1), np.empty((n, khi - klo + 1))
    for parity, block in enumerate(_parity_blocks(params)):
        first = klo + (klo + parity) % 2  # first order >= klo of this parity
        if first > khi:
            continue
        out = vecs[:, first - klo :: 2]
        chis[first - klo :: 2] = _block_eigenvectors(
            *block, first // 2, (khi - parity) // 2, _shift_tol(params), None, out
        )
        _mirror(n, parity, out)
    return chis, vecs


def _shift_tol(params: ProlateParams) -> float:
    """Bisection tolerance of the coarse shifts. A block's eigenvalues are those
    of orders k and k + 2, whose gaps are smallest near order 2NW, where they
    are at least 0.23 * n * sin(2 pi W) up to n = 2**16 (twice the gap between
    adjacent orders), so each shift misses its eigenvalue by under 1e-4 of the
    gap to the nearest other eigenvalue of its block."""
    return params.n * math.sin(2.0 * math.pi * params.w) / 2.0**16


@functools.cache
def _worker():
    """The one worker thread of the rounds' second probes, made on first use."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="prolate-probe")


def _solve_probes(
    params: ProlateParams, probes: list[tuple[int, tuple[float, float] | None]]
) -> list[tuple[float, float, float]]:
    """(lambda_k, 1 - lambda_k, chi_k) of one or two one-order probes (order,
    window), the probe of :func:`_search_runs`: the second's block solve runs
    on the worker thread beside the first's; mirroring and Rayleigh quotients
    follow on this thread."""
    n = params.n
    # the Rayleigh quotients' symbol, made first so that its transforms do not
    # add to the memory that the two solves hold
    _prolate_symbol(params)
    blocks, tol = _parity_blocks(params), _shift_tol(params)
    jobs = [(k, window, np.empty((n, 1))) for k, window in probes]

    def solve(k: int, window, out: np.ndarray) -> np.ndarray:
        return _block_eigenvectors(*blocks[k % 2], k // 2, k // 2, tol, window, out)

    if len(jobs) == 2:
        later = _worker().submit(solve, *jobs[1])
        try:
            first = solve(*jobs[0])
        finally:
            later.exception()  # waits for the worker, whatever this thread's solve did
        chis = [first, later.result()]
    else:
        chis = [solve(*job) for job in jobs]
    for k, _, out in jobs:
        _mirror(n, k % 2, out)
    solved = [(_eigenvalues(params, out, k), chi) for chi, (k, _, out) in zip(chis, jobs)]
    return [(float(lam[0]), float(comp[0]), float(chi[0])) for (lam, comp, _), chi in solved]


def _stebz(diag: np.ndarray, off: np.ndarray, select: int, lo, hi, tol: float) -> np.ndarray:
    """The block's eigenvalues in (lo, hi] (``select`` 1) or its lo-th..hi-th
    smallest, counted from 1 (``select`` 2), ascending, bisected to ``tol`` by
    one LAPACK ``stebz`` call: the one bisection entry point, called as
    scipy's tridiagonal solvers call it. NumericalError on a nonzero
    ``info``; ValueError unless the bands have sizes n >= 1 and n - 1, as
    LAPACK would read past a short one."""
    d, e = (np.ascontiguousarray(a, np.float64) for a in (diag, off))
    n = d.size
    if n < 1 or e.size != n - 1:
        raise ValueError(f"LAPACK band arguments of sizes {[d.size, e.size]} for n = {n}")
    vl, vu, il, iu = (lo, hi, 0, 0) if select == 1 else (0.0, 1.0, lo, hi)
    # w has its own memory, as the caller holds it; reals: vl, vu, tol and 4n of
    # work; ints: n, il, iu, m, nsplit, info, iblock, isplit and 3n of work
    w, reals, ints = np.empty(n), np.empty(3 + 4 * n), np.empty(6 + 5 * n, np.int32)
    reals[:3], ints[:3] = (vl, vu, tol), (n, il, iu)
    w_at, r, i = (ctypes.addressof(ctypes.c_char.from_buffer(a)) for a in (w, reals, ints))
    _lapack("dstebz")(
        b"V" if select == 1 else b"I", b"E",
        i, r, r + 8, i + 4, i + 8, r + 16, d.ctypes.data, e.ctypes.data, i + 12, i + 16,
        w_at, i + 24, i + 24 + 4 * n, r + 24, i + 24 + 8 * n, i + 20,
    )  # fmt: skip
    if ints[5] != 0:
        what = f"({lo}, {hi}]" if select == 1 else f"indices {lo}..{hi}"
        raise NumericalError(f"LAPACK stebz failed in {what} of a block of {n} (info={ints[5]})")
    return w[: ints[3]]


def _stein(diag: np.ndarray, off: np.ndarray, shift: float, out: np.ndarray) -> None:
    """The unit eigenvector of the block at ``shift`` (a coarse eigenvalue),
    written into ``out`` (n entries), by one LAPACK ``stein`` call with that
    one shift; NumericalError if it does not converge, ValueError on bands of
    the wrong sizes, as for :func:`_stebz`."""
    d, e = (np.ascontiguousarray(a, np.float64) for a in (diag, off))
    n = d.size
    if n < 1 or e.size != n - 1:
        raise ValueError(f"LAPACK band arguments of sizes {[d.size, e.size]} for n = {n}")
    # reals: the shift, 5n of work and z; ints: n, m = 1, ldz, info, iblock (all
    # 1: one unreduced block), isplit (all n), n of work and ifail
    reals, ints = np.empty(1 + 6 * n), np.empty(5 + 3 * n, np.int32)
    reals[0], ints[:3] = shift, (n, 1, n)
    ints[4 : 4 + n], ints[4 + n : 4 + 2 * n] = 1, n
    r, i = (ctypes.addressof(ctypes.c_char.from_buffer(a)) for a in (reals, ints))
    _lapack("dstein")(
        i, d.ctypes.data, e.ctypes.data, i + 4, r, i + 16, i + 16 + 4 * n,
        r + 8 * (1 + 5 * n), i + 8, r + 8, i + 16 + 8 * n, i + 16 + 12 * n, i + 12,
    )  # fmt: skip
    if ints[3] != 0:
        raise NumericalError(f"LAPACK stein did not converge at shift {shift} (info={ints[3]})")
    out[:] = reals[1 + 5 * n :]


def _block_eigenvectors(
    diag: np.ndarray,
    off: np.ndarray,
    upper: float,
    jlo: int,
    jhi: int,
    tol: float,
    window: tuple[float, float] | None,
    out: np.ndarray,
) -> np.ndarray:
    """Eigenvalues for the jlo-th..jhi-th largest eigenvalues of one block (all
    below ``upper``), in descending eigenvalue order; their eigenvectors go
    into the first ``diag.size`` rows of the columns of ``out``.

    When the call asks for every eigenvalue of the block (jlo 0, jhi
    size - 1, size >= 2), one LAPACK MRRR call (``stemr``, through the
    ``eigh_tridiagonal`` forwarder) gives all of them and their vectors, and
    its LinAlgError raises NumericalError; it returns its own size x size
    vectors, copied into ``out``. Otherwise coarse bisection gives one shift
    per eigenvalue, and LAPACK ``stein`` (inverse iteration, which perturbs a
    singular shift itself) turns each shift into a unit vector. Each shift
    goes in its own call: given several,
    ``stein`` re-orthogonalizes every vector against the earlier ones whose
    eigenvalues lie within 1e-3 of the block's norm, which at large n is the
    whole slice, while same-parity neighbours are two orders apart and need
    none of it. The block is one unreduced block: its off-diagonals, those of
    T, never vanish.

    Every bisection goes through :func:`_stebz`, to ``tol`` (the Sturm count
    above a window only needs its eigenvalues counted, so it takes a coarse
    tolerance). Bisection by index first bisects the whole block down to
    about ulp times its norm, whatever ``tol`` says. So a one-index call with
    a ``window`` (vl, vu) bisects by value inside it instead, and takes its
    eigenvalue when LAPACK's Sturm counts prove it is index jlo: exactly one
    eigenvalue in (vl, vu] and exactly jlo in (vu, upper]. Otherwise, or with
    no window, it bisects by index. A nonzero ``info`` from either raises
    NumericalError.
    """
    size = diag.size
    if size == 1:
        out[0] = 1.0
        return diag.copy()
    if jlo == 0 and jhi == size - 1:
        try:
            chis, vecs = eigh_tridiagonal(diag, off, lapack_driver="stemr")
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"LAPACK stemr failed on a block of {size}: {exc}") from None
        out[:size] = vecs[:, ::-1]  # ascending block order runs against k
        return chis[::-1]
    shifts = None
    if window is not None and window[0] < window[1]:
        vl, vu = window
        found = _stebz(diag, off, 1, vl, vu, tol)
        if found.size == 1 and (
            _stebz(diag, off, 1, vu, upper, upper - vu).size if vu < upper else 0
        ) == jlo:
            shifts = found
    if shifts is None:
        # ascending block order runs against k; flip so column j is index jlo + j
        shifts = _stebz(diag, off, 2, size - jhi, size - jlo, tol)[::-1]
    for j, shift in enumerate(shifts):
        _stein(diag, off, shift, out[:size, j])
    return shifts


def _half_size(n: int) -> int:
    """P, the least power of two >= n: B embeds in a circulant of size 2P."""
    return 1 << (n - 1).bit_length()


def _circulant_embedding(col: np.ndarray, m: int) -> np.ndarray:
    """First column of the size-m circulant (m >= 2n - 1) whose leading n x n
    block is the symmetric Toeplitz matrix with first column ``col``."""
    n = col.size
    c = np.zeros(m)
    c[:n] = col
    if n > 1:
        c[m - n + 1 :] = col[1:][::-1]
    return c


@functools.lru_cache(maxsize=1)
def _prolate_symbol(params: ProlateParams) -> tuple[np.ndarray, np.ndarray | None]:
    """B's circulant symbol and the DCT-II twiddles of one instance, read-only.

    The symbol is the real DFT, bins 0..P, of B's circulant embedding of size
    2P (the DCT-I of B's first column); I - B has symbol 1 - it, as the
    DCT-I of the unit impulse is all ones. The twiddles exp(-i pi k / (2P)),
    k = 0..P/2, turn a length-P real FFT into a DCT-II (even n only).
    """
    p = _half_size(params.n)
    col = sinc_kernel(params.w, np.arange(params.n))
    symbol = np.fft.rfft(_circulant_embedding(col, 2 * p)).real
    symbol.flags.writeable = False
    twiddles = None
    if params.n % 2 == 0:
        twiddles = np.exp(-0.5j * math.pi / p * np.arange(p // 2 + 1))
        twiddles.flags.writeable = False
    return symbol, twiddles


def _parseval_weights(params: ProlateParams, reflected: bool, parity: int) -> np.ndarray:
    """Weights w with s^T K s = sum_k w_k Q_k for the squares Q of
    :func:`_parseval_squares`, K = B, or I - B when ``reflected``.

    Parseval on the zero-padded s gives s^T K s = (1/2P) sum_k K^_k |S_k|^2
    over all 2P bins, and bins 1..P-1 stand for a conjugate pair. At odd n,
    Q_k = |S_k|^2 over bins 0..P. At even n, |S_k| = 2 |X_k| with X the DCT-II
    of the half of s (parity 0), or the DCT-II of the alternated half at bin
    P - k (parity 1, whose weights therefore run backwards).
    """
    symbol, _ = _prolate_symbol(params)
    if reflected:
        symbol = 1.0 - symbol
    p = symbol.size - 1
    w = (1.0 / p if params.n % 2 else 4.0 / p) * symbol
    w[0] *= 0.5
    w[p] *= 0.5
    if params.n % 2:
        return w
    return w[:p] if parity == 0 else w[p:0:-1]


def _parseval_squares(params: ProlateParams, vecs: np.ndarray, parity: int) -> np.ndarray:
    """Squared transform values Q (one row per column s of ``vecs``, each of
    ``parity``) for the weights of :func:`_parseval_weights`.

    At even n the half x = s[n/2:] determines s, and its DCT-II of length P
    is one real FFT of length P after Makhoul's reordering (IEEE Trans.
    ASSP 28, 1980): y = (x_0, x_2, ..., 0, ..., x_3, x_1). The DCT-II of
    the alternated half (-1)^i x_i flips the sign of the odd-indexed x_i. At
    odd n, Q is |S_k|^2 of one real FFT of length 2P.
    """
    n = params.n
    p = _half_size(n)
    if n % 2:
        spec = np.fft.rfft(vecs.T, 2 * p, axis=1)
        q = np.square(spec.real)
        q += np.square(spec.imag)
        return q
    x = vecs[n // 2 :].T
    y = np.zeros((x.shape[0], p))
    odd = x[:, 1::2][:, ::-1]
    y[:, : (x.shape[1] + 1) // 2] = x[:, 0::2]
    y[:, p - odd.shape[1] :] = odd if parity == 0 else -odd
    spec = np.fft.rfft(y, axis=1)
    spec *= _prolate_symbol(params)[1]
    # X_k = Re(spec_k) for k <= P/2 and X_{P-k} = -Im(spec_k); y is reused for Q
    np.square(spec.real, out=y[:, : p // 2 + 1])
    np.square(spec.imag[:, p // 2 - 1 : 0 : -1], out=y[:, p // 2 + 1 :])
    return y


def _rayleigh_quotients(
    params: ProlateParams, vecs: np.ndarray, reflected: bool, k0: int
) -> np.ndarray:
    """s^T B s, or s^T (I - B) s when ``reflected``, per unit column s of
    ``vecs``, column j of order k0 + j: a Parseval sum over one forward real
    FFT of each column (see :func:`_parseval_squares`), taken in chunks of
    columns and, at even n, one parity at a time."""
    n = params.n
    out = np.empty(vecs.shape[1])
    step = 2 - n % 2
    for first in range(min(step, vecs.shape[1])):
        parity = (k0 + first) % 2
        w = _parseval_weights(params, reflected, parity)
        cols, res = vecs[:, first::step], out[first::step]
        for chunk in _column_chunks(cols.shape[1], _half_size(n)):
            res[chunk] = np.einsum("ij,j->i", _parseval_squares(params, cols[:, chunk], parity), w)
    return out


def dense_spectrum(params: ProlateParams) -> SpectrumSlice:
    """Full spectrum by a dense symmetric eigensolver, sorted descending.

    Oracle route; requires ``params.n`` within the dense cap.
    """
    lam = np.clip(np.linalg.eigvalsh(build_prolate_matrix(params))[::-1], 0.0, 1.0)
    return SpectrumSlice(params, 0, params.n - 1, lam, 1.0 - lam, np.zeros(lam.shape, dtype=bool))


def _check_entries(n: int, count: int) -> int:
    """``count``, once ``count`` eigenvectors of length ``n`` fit the entry cap,
    the dense route's n x n block (:func:`kernel.dense_cap` squared);
    CapacityError past it."""
    limit = dense_cap() ** 2
    if n * count > limit:
        raise CapacityError(
            f"{count} eigenvector(s) of length {n} exceed the entry cap {limit} "
            "(the dense cap squared)"
        )
    return count


def tridiagonal_spectrum(params: ProlateParams, kmin: int, kmax: int) -> SpectrumSlice:
    """Eigenvalues lambda_kmin..lambda_kmax via the commuting tridiagonal route.

    Every order is solved for in this instance; orders below floor(2NW), where
    lambda >= 1/2, take 1 - lambda directly as s^T (I - B) s of their unit
    vector s, so that it keeps relative accuracy near 1.

    Parameters
    ----------
    params : ProlateParams
    kmin, kmax : int
        Inclusive index range, ``0 <= kmin <= kmax <= n - 1``.

    Raises
    ------
    CapacityError
        If the n x (kmax - kmin + 1) eigenvector block has more entries than
        the dense route's n x n block may (:func:`kernel.dense_cap` squared),
        before anything is allocated.
    """
    n = params.n
    if not (0 <= kmin <= kmax <= n - 1):
        raise ParameterError(f"need 0 <= kmin <= kmax <= {n - 1}, got [{kmin}, {kmax}]")
    _check_entries(n, kmax - kmin + 1)
    _, vecs = _concentration_eigenvectors(params, kmin, kmax)
    return SpectrumSlice(params, kmin, kmax, *_eigenvalues(params, vecs, kmin))


def _eigenvalues(params: ProlateParams, vecs: np.ndarray, kmin: int) -> tuple[np.ndarray, ...]:
    """lambda_k, 1 - lambda_k and the orders taken via the complement of the
    unit vectors of orders kmin, kmin + 1, ... (the columns of ``vecs``):
    each as its Rayleigh quotient, against I - B below floor(2NW), clipped to
    [0, 1], and the other as 1 minus it."""
    count = vecs.shape[1]
    head = min(max(params.tbp_floor - kmin, 0), count)  # orders below floor(2NW)
    lam, comp = np.empty(count), np.empty(count)
    for reflected, cols in ((True, slice(0, head)), (False, slice(head, count))):
        if cols.start == cols.stop:
            continue
        own, other = (comp, lam) if reflected else (lam, comp)
        rq = _rayleigh_quotients(params, vecs[:, cols], reflected, kmin + cols.start)
        own[cols] = np.clip(rq, 0.0, 1.0)
        other[cols] = 1.0 - own[cols]
    return lam, comp, np.arange(count) < head


def _count_run(slc: SpectrumSlice, eps: float) -> tuple[int, int | None, int | None]:
    """(width, k_first, k_last) of the run with eps < lambda < 1 - eps in a slice.

    Counts every entry; the reference that the search in
    :func:`transition_widths` is tested against.
    """
    idx = np.flatnonzero((slc.lam > eps) & (slc.comp > eps))
    if idx.size == 0:
        return 0, None, None
    k_first = slc.kmin + int(idx[0])
    k_last = slc.kmin + int(idx[-1])
    return k_last - k_first + 1, k_first, k_last


def _search_runs(
    n: int, mid: float, scale: float, chi_line: tuple[float, float], eps_list, probe
) -> tuple[dict[float, tuple[int, int]], tuple[int, ...]]:
    """The runs of :func:`transition_widths` in orders 0..n-1, found from
    probes alone: ``probe`` takes one or two (order, window) pairs and returns
    (lambda_k, 1 - lambda_k, chi_k) of each. Returns {eps: (first, last)},
    last < first where empty, and the probed orders, in the order probed.

    Each end is found by one search over k that keeps the bracket the probes
    prove, last order outside the run and first inside. A model of
    logit(lambda_k) only picks the next order inside it, and through
    ``chi_line`` (the slope of chi_k in that logit, and chi_k at logit 0)
    the window where its chi_k is sought. The first probe sits where
    Slepian's line, logit(lambda_k) ~ -(k - mid) / scale, crosses the
    search's level, logit(1 - eps) or logit(eps). Each resolved probe also
    gives a mirror point (2 mid - k, -logit(lambda_k)) at the other end of
    the run, and later probes sit where the secant through the two points
    (probes or mirror points, at least an order apart) nearest the level
    crosses it, so a width costs about four probes. Probes with lambda or
    1 - lambda at the resolution floor (saturated) count only by their side;
    when the last one ends the bracket, the search bisects between it and
    its mirror image 2 mid - k, clipped into the bracket, as the nearly
    symmetric run lies between them. Where the run is cut off at k = 0 or
    n - 1 the mirror is wrong, which costs probes but changes no count: each
    rests on probes on both sides of each end, or on the sentinels -1
    (outside) and n (inside). Probes are shared by all thresholds, largest
    eps first, and a threshold's two searches probe in rounds, two at a time.
    """
    probes: dict[int, tuple[float, float]] = {}
    logits: dict[int, float] = {}  # logit(lambda_k) of the probes above the floor
    # order -> (logit, chi) on the line of chi_k in logit(lambda_k)
    chi_per_logit, chi_mid = chi_line
    anchors = {mid: (0.0, chi_mid)}

    def model(level: float) -> tuple[float, float, float]:
        """A point (k1, x1) and the slope dk (orders per unit of logit) of the
        line that predicts logit(lambda_k) near ``level``: the secant through
        the two points (resolved probes and their mirror points) nearest that
        level that lie an order or more apart, else Slepian's line through the
        nearest point, or through (mid, 0) before any probe resolves."""
        points = [*logits.items(), *((2.0 * mid - k, -x) for k, x in logits.items())]
        points.sort(key=lambda point: abs(point[1] - level))
        k1, x1 = points[0] if points else (mid, 0.0)
        k2, x2 = next(((k, x) for k, x in points if abs(k - k1) >= 1.0), (k1, x1))
        return k1, x1, (k2 - k1) / (x2 - x1) if x2 != x1 else -scale

    def window(k: int, level: float) -> tuple[float, float] | None:
        """Where chi_k is sought first: 0.9 of an order's spacing
        (chi_per_logit / |dk|) to each side of its prediction, the model's
        logit at k mapped to chi through the anchor nearest k."""
        k1, x1, dk = model(level)
        if not dk:
            return None
        x, chi = anchors[min(anchors, key=lambda a: abs(a - k))]
        centre = chi + chi_per_logit * (x1 + (k - k1) / dk - x)
        # at most N sin(2 pi W), about 4 of the smallest gaps between a
        # block's eigenvalues (see _shift_tol): where dk is near 0 a window
        # then holds at most 9 of them, not the block
        half = chi_per_logit * min(0.9 / abs(dk), 2.0 * math.pi)
        return centre - half, centre + half

    def record(picks: dict[int, float]) -> None:
        """Record (lambda_k, 1 - lambda_k) of one or two orders not yet probed
        (order -> level of its search), in their order, each probed in its
        window as the model stood before either."""
        windows = [(k, window(k, level)) for k, level in picks.items()]
        for (k, _), (lam, comp, chi) in zip(windows, probe(windows)):
            probes[k] = (lam, comp)
            if min(lam, comp) > RESOLUTION_FLOOR:
                logits[k] = math.log(lam) - math.log(comp)
                anchors[k] = (logits[k], chi)

    def next_order(lo: int, hi: int, level: float, last: int | None) -> int:
        """The order strictly inside (lo, hi) nearest where the model's line
        crosses ``level``. When the search's last probe is saturated and ends
        the bracket, its value says nothing and a prediction would stall
        beside it: the midpoint between it and its mirror image instead,
        clipped into the bracket, as the run lies between them."""
        if last in (lo, hi) and last not in logits:
            other = min(max(round(2.0 * mid - last), lo), hi)
            return min(max((last + other) // 2, lo + 1), hi - 1)
        k1, x1, dk = model(level)
        return round(min(max(k1 + (level - x1) * dk, lo + 1), hi - 1))

    def search(inside, level: float):
        """First order k with ``inside(k)``, for a predicate of the probed orders
        that turns True as logit(lambda_k) falls through ``level``; orders -1
        and n count as False and True. A generator: it yields each order it
        needs probed, with its level, and returns the first order."""
        last = next(reversed(probes), None)  # the last probe before the search's own
        while True:
            # the bracket that the probes prove
            hi = min((k for k in probes if inside(k)), default=n)
            lo = max((k for k in probes if k < hi and not inside(k)), default=-1)
            if hi - lo <= 1:
                return hi
            last = next_order(lo, hi, level, last)
            yield last, level

    def ends(searches: list, wait: bool) -> list[int]:
        """What the two ``searches`` return, run in rounds: each round probes
        the next order of each unfinished one. With ``wait`` the second joins
        only once a probe of these rounds has resolved or the first has ended."""
        found: list[int | None] = [None, None]
        # logits only grow: a probe of these rounds resolved once it outgrows this
        known = len(logits) if wait else -1  # -1: the second never waits
        while True:
            picks: dict[int, float] = {}  # order -> level, in search order
            for i, steps in enumerate(searches):
                if found[i] is not None or (i and len(logits) == known and found[0] is None):
                    continue
                try:
                    k, level = next(steps)
                except StopIteration as end:
                    found[i] = end.value
                else:
                    picks.setdefault(k, level)
            if not picks:
                return found
            record(picks)

    # run [first, stop - 1]: first is the first order with 1 - lambda > eps,
    # stop the first with lambda <= eps. The second end of each threshold but
    # the last waits for a resolved probe of its own threshold, whose mirror
    # point places it better than a line through the larger eps's points (for
    # the three default eps, 13 probes at (2^16, 1/4) and 1298 over desk
    # figure 3, against 14 and 1366 with no wait). At the last, waiting saved
    # no probe over desk figure 3 (1303) and cost a round a width at 2^16
    thresholds = sorted(set(eps_list), reverse=True)  # largest first
    runs: dict[float, tuple[int, int]] = {}
    for i, eps in enumerate(thresholds):
        level = math.log1p(-eps) - math.log(eps)  # logit(1 - eps)
        searches = [
            search(lambda k: probes[k][1] > eps, level),
            search(lambda k: probes[k][0] <= eps, -level),
        ]
        first, stop = ends(searches, wait=i < len(thresholds) - 1)
        runs[eps] = (first, stop - 1)
    return runs, tuple(probes)


def transition_widths(params: ProlateParams, eps_list) -> list[TransitionReport]:
    """Count indices with eps < lambda_k < 1 - eps, for each eps of ``eps_list``.

    Computed lambda_k is non-increasing and 1 - lambda_k non-decreasing in k
    where it is resolved, so the run for one eps is [k_first, k_last], where
    k_first is the first order with 1 - lambda > eps and k_last the last with
    lambda > eps. The width search, :func:`_search_runs`, finds both ends
    from a few computed eigenvalues (probes), which it reaches only through
    :func:`_solve_probes`; this function checks the input, sets the lines
    that steer the search and builds the reports.

    Parameters
    ----------
    params : ProlateParams
    eps_list : sequence of float
        Non-empty; each threshold in (RESOLUTION_FLOOR, 1/2). Reports follow
        its order. At or below the floor, computed eigenvalues are rounding
        noise and not monotone in k, so a count there would depend on which
        orders were probed; such an eps raises ParameterError.
    """
    eps_list = [_check_eps(eps) for eps in eps_list]
    if not eps_list:
        raise ParameterError("need at least one eps")
    if (eps_min := min(eps_list)) <= RESOLUTION_FLOOR:
        raise ParameterError(
            f"eps must exceed the resolution floor {RESOLUTION_FLOOR:g}, got {eps_min}"
        )
    # every probe holds one vector of length n: past the entry cap, refuse before any solve
    _check_entries(params.n, 1)
    n, two_pi_w = params.n, 2.0 * math.pi * params.w
    # Slepian's line, logit(lambda_k) ~ -(k - mid) / scale; where N sin(2 pi W) < 1
    # the log would make it rise in k, and scale 0 puts every level at mid instead
    mid = params.time_bandwidth - 0.5
    scale = max(math.log(n * math.sin(two_pi_w)), 0.0) / math.pi**2
    # through a run the T-eigenvalue chi_k is nearly linear in logit(lambda_k),
    # with slope N sin(2 pi W)/(2 pi) and (N^2 - 1)/4 cos(2 pi W) at logit 0
    # (within 0.05 of an order's spacing where measured, N >= 256, W >= 1e-3)
    chi_mid = (n - 1.0) * (n + 1.0) / 4.0 * math.cos(two_pi_w)
    chi_line = (n * math.sin(two_pi_w) / (2.0 * math.pi), chi_mid)
    probe = functools.partial(_solve_probes, params)
    runs, probed = _search_runs(n, mid, scale, chi_line, eps_list, probe)
    reports = []
    for eps in eps_list:
        first, last = runs[eps]
        width = max(last - first + 1, 0)
        ends = (first, last) if width else (None, None)
        reports.append(TransitionReport(params, eps, width, *ends, eps <= ADVISORY_EPS, probed))
    return reports


def transition_width(params: ProlateParams, eps: float) -> TransitionReport:
    """Count indices with eps < lambda_k < 1 - eps; see :func:`transition_widths`."""
    return transition_widths(params, [eps])[0]


def _check_sum_index(params: ProlateParams, K: int) -> int:
    """``K``, once it splits the spectrum: 0 <= K <= N; ParameterError otherwise."""
    if not (0 <= K <= params.n):
        raise ParameterError(f"need 0 <= K <= {params.n}, got {K}")
    return K


def eigensum_tail(params: ProlateParams, K: int) -> float:
    """Sum of the trailing eigenvalues ``sum_{k=K..N-1} lambda_k``, 0 <= K <= N.

    ``K = 0`` sums the whole spectrum (the trace, 2NW); ``K = N`` is 0.
    """
    if _check_sum_index(params, K) == params.n:
        return 0.0
    return tridiagonal_spectrum(params, K, params.n - 1).sum_lambdas()


def eigensum_head(params: ProlateParams, K: int) -> float:
    """Sum of the leading eigenvalue defects ``sum_{k=0..K-1} (1 - lambda_k)``, 0 <= K <= N.

    Sums the directly computed ``1 - lambda_k`` of one slice, so defects far
    below 1e-16 are not rounded away; entries at or past floor(2NW) are at
    least 1/2, so rounding them costs only ulps of a sum of at least 1/2.
    """
    if _check_sum_index(params, K) == 0:
        return 0.0
    return math.fsum(tridiagonal_spectrum(params, 0, K - 1).comp.tolist())


@dataclass(kw_only=True)
class PSWFProxy(SpectrumSlice):
    """Discrete proxy for continuous-case eigenvalues at matched 2c/pi.

    The entries are lambda_k(N, c/(pi N)); each lies within ``delta`` of the
    continuous eigenvalue lambda~_k(c), where

        delta = 4 c^3 / (3 pi N^3 sin(2c/N)).
    """

    c: float
    delta: float


def pswf_proxy(c: float, kmin: int, kmax: int, n: int) -> PSWFProxy:
    """Estimate continuous-case eigenvalues by the discrete instance (N, c/(pi N)).

    Parameters
    ----------
    c : float
        Half time-bandwidth product of the continuous problem.
    kmin, kmax : int
        Inclusive index range of eigenvalues to estimate.
    n : int
        Proxy dimension; must exceed 2c/pi (this also puts c/(pi N) < 1/2).
    """
    delta = proxy_delta(c, n)
    slc = tridiagonal_spectrum(ProlateParams(n, c / (math.pi * n)), kmin, kmax)
    return PSWFProxy(**vars(slc), c=float(c), delta=delta)


def proxy_width_interval(c: float, eps: float, n: int) -> tuple[int | None, int | None, float]:
    """Bracket the continuous transition width using a proxy spectrum.

    Returns ``(lo, hi, delta)`` where ``delta`` is the proxy radius
    ``bounds.proxy_delta(c, n)``, ``lo`` counts proxy eigenvalues with
    eps + delta < lambda < 1 - eps - delta (a certified lower estimate of the
    true width) and ``hi`` counts with thresholds loosened by delta (an upper
    estimate). ``hi`` is None when eps - delta is at or below the resolution
    floor (eps <= delta among such cases), in which case no upper estimate is
    certifiable. ``lo`` is None in the degenerate case eps + delta >= 1/2.
    Both counts come from one :func:`transition_widths` call on the proxy
    instance. ``eps`` outside (0, 1/2) raises ParameterError.
    """
    eps = _check_eps(eps)
    delta = proxy_delta(c, n)
    eps_lo, eps_hi = eps + delta, eps - delta
    counted = [thr for thr in (eps_lo, eps_hi) if RESOLUTION_FLOOR < thr < 0.5]
    params = ProlateParams(n, c / (math.pi * n))
    widths = {r.eps: r.width for r in transition_widths(params, counted)} if counted else {}
    return widths.get(eps_lo), widths.get(eps_hi), delta
