"""Integer-lattice machinery: exact integer and mod-q matrix products,
trapdoor matrix generation with a gadget trapdoor, and Gaussian preimage
sampling.

The trapdoor generator outputs ``A = [A_bar | G - A_bar R]`` for a small
random ``R``, so that ``A [R; I] = G`` exactly, with ``G = I_n (x) g`` the
gadget matrix (Micciancio-Peikert, EUROCRYPT 2012, section 5.4).  Preimages
follow the same perturb-then-gadget-sample pattern as the ring scheme: a
perturbation ``p`` with covariance ``sigma^2 I - w^2 [R; I][R; I]^T`` hides
``R``, the remaining syndrome is sampled in the gadget coset at width ``w``,
and the gadget solution re-enters through ``[R; I]``.  As in the ring scheme,
the perturbation is factored gadget-first, through an ``m_bar x m_bar`` factor,
and one :func:`sample_left` call serves every job it is given: one draw per
kind of randomness and one gadget walk for all of them.  The scheme opens
its ciphertexts by trapdoor inversion instead (``pkeet_int``); this
sampler serves the self-test's algebraic gate and the tests.

Every exact product of signed integer matrices follows one rule
(:func:`_exact_matmul`): a float64 BLAS product while no partial sum can
reach 2^53, numpy's int64 product below 2^62, and :func:`matmul_mod` above.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CovarianceNotPD, GenerationFailed, InvalidParams
from .params import MULMOD_CAP, ParamsInt, int_gadget_width
from .ring import mulmod
from .rng import XofRng
from .sampling import (
    gadget_first_factor,
    gadget_vector,
    sample_g_batch,
    sample_z_batch,
    sample_z_reject,
)

_TRAPGEN_RETRIES = 8


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact ``a @ b mod q`` for residue matrices and a modulus below
    ``MULMOD_CAP``, where the elementwise products ride the exact
    :func:`~pkeet.ring.mulmod` kernel.

    Each elementwise product is reduced before accumulation, so row sums
    stay far below the int64 ceiling; output columns are processed in
    blocks to bound the temporary.
    """
    if q >= MULMOD_CAP:
        raise InvalidParams(f"modulus too large for exact matmul: {q}")
    a = np.asarray(a, dtype=np.int64) % q
    b = np.asarray(b, dtype=np.int64) % q
    rows, inner = a.shape
    inner_b, cols = b.shape
    if inner != inner_b:
        raise InvalidParams(f"matmul shapes {a.shape} x {b.shape} do not align")
    chunk_terms = max(1, (1 << 62) // max(1, q))   # summands per partial sum
    out = np.zeros((rows, cols), dtype=np.int64)
    col_block = max(1, (1 << 22) // max(1, inner))
    for j0 in range(0, cols, col_block):
        j1 = min(cols, j0 + col_block)
        acc = np.zeros((rows, j1 - j0), dtype=np.int64)
        for k0 in range(0, inner, chunk_terms):
            k1 = min(inner, k0 + chunk_terms)
            prod = mulmod(a[:, k0:k1, None], b[None, k0:k1, j0:j1], q)
            acc = (acc + prod.sum(axis=1)) % q
        out[:, j0:j1] = acc
    return out


def mat_uniform(q: int, rows: int, cols: int, rng: XofRng) -> np.ndarray:
    return rng.uniform_mod(q, rows * cols).reshape(rows, cols)


def _exact_matmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """``a @ b`` for signed integer matrices, exact while the bound
    ``inner * max|a| * max|b|`` on every partial sum stays below 2^62;
    above it the result is only the product's residue mod ``q``.

    Below 2^53 the product is one float64 BLAS call, in which every
    partial sum is an exactly representable integer; below 2^62 it is
    numpy's int64 product, which does not use BLAS; above that it goes
    through :func:`matmul_mod`.  Operands may be int64 or float64 arrays
    of integers (a trapdoor's ``R``); only those not already of the
    product's dtype are converted.  Callers that want residues reduce the
    result; the ``R z`` fold-back keeps the signed product, its bound
    being far below 2^53.
    """
    bound = a.shape[1] * int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    if bound < 1 << 53:
        product = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
        return product.astype(np.int64)
    if bound < 1 << 62:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return matmul_mod(a, b, q)


def _mul_signed(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """``a @ b mod q`` for signed integer matrices."""
    return _exact_matmul(a, b, q) % q


# ---------------------------------------------------------------------------
# Trapdoor generation
# ---------------------------------------------------------------------------


@dataclass
class IntTrapdoor:
    """Gadget trapdoor ``R`` with the gadget-first factor of its
    perturbation covariance ``(sigma^2 - sigma_r^2) I - w^2 [R; I][R; I]^T``
    (see :func:`~pkeet.sampling.gadget_first_factor`); the ``sigma_r^2``
    share is left for the randomized rounding.  ``R`` is held once, as
    float64: its entries lie far below 2^53, so every one is exact, and
    the perturbation and ``R z`` products read it without a conversion."""

    r: np.ndarray              # (m_bar, n*k) float64 of signed integers
    sqrt_d: float              # sqrt(sigma^2 - sigma_r^2 - w^2)
    chol: np.ndarray           # (m_bar, m_bar) float64, lower triangular

    @classmethod
    def from_r(cls, r: np.ndarray, params: ParamsInt) -> "IntTrapdoor":
        """Factor the perturbation covariance of ``R``; raises
        :class:`CovarianceNotPD` when ``sigma`` is too narrow for it."""
        r = np.asarray(r, dtype=np.float64)
        zeta_sq = params.sigma**2 - params.sigma_r**2
        w_sq = int_gadget_width(params.m) ** 2
        return cls(r, *gadget_first_factor(r, zeta_sq, w_sq, params.sigma**2))


def gadget_completion(a_bar: np.ndarray, r: np.ndarray, q: int) -> np.ndarray:
    """``A = [A_bar | G - A_bar R] (mod q)``: the one matrix with uniform
    half ``A_bar`` of which ``R`` is a gadget trapdoor."""
    n, nk = a_bar.shape[0], r.shape[1]
    gadget = np.kron(np.eye(n, dtype=np.int64), gadget_vector(nk // n))   # G = I_n (x) g
    return np.concatenate([a_bar, (gadget - _mul_signed(a_bar, r, q)) % q], axis=1)


def gadget_residual(a_mat: np.ndarray, r: np.ndarray, q: int) -> np.ndarray:
    """Exact residual of ``A [R; I] - G (mod q)``, which is ``A``'s tail less
    that of :func:`gadget_completion`; zero when ``R`` is a gadget trapdoor
    of ``A``."""
    m_bar = r.shape[0]
    return (a_mat[:, m_bar:] - gadget_completion(a_mat[:, :m_bar], r, q)[:, m_bar:]) % q


def trap_gen_int(
    a_bar: np.ndarray, params: ParamsInt, rng: XofRng
) -> tuple[np.ndarray, IntTrapdoor]:
    """``A = [A_bar | G - A_bar R]`` (n x m) for the given uniform ``A_bar``
    (n x m_bar), with its gadget trapdoor ``R`` (:func:`gadget_completion`).

    A draw of ``R`` whose perturbation covariance is not positive definite
    at width ``sigma`` is discarded and ``R`` is drawn again; that check
    depends on ``R`` alone, so ``A_bar`` is kept.
    """
    for _ in range(_TRAPGEN_RETRIES):
        r_small = sample_z_batch(params.sigma_r, (params.m_bar, params.n * params.k), rng)
        try:
            trap = IntTrapdoor.from_r(r_small, params)
        except CovarianceNotPD:
            continue
        return gadget_completion(a_bar, r_small, params.q), trap
    raise GenerationFailed(
        f"no trapdoor with a positive definite perturbation in {_TRAPGEN_RETRIES} draws"
    )


# ---------------------------------------------------------------------------
# Preimage sampling
# ---------------------------------------------------------------------------


def sample_left(
    jobs: Sequence[tuple[np.ndarray, np.ndarray, IntTrapdoor, np.ndarray]],
    params: ParamsInt,
    rng: XofRng,
) -> np.ndarray:
    """Gaussian preimages: for each job ``(A, M1, trap, U)`` columns ``e``
    with ``(A | M1) e = U mod q`` and Gaussian profile, stacked as
    (J, 2m, t); every ``U`` has the same t columns.

    The second half of each column is a fresh Gaussian of width ``sigma``,
    zero-centred, so :func:`~pkeet.sampling.sample_z_batch` draws it at one
    stream word per entry.  The first half is ``p + [R z; z]``: ``p`` is the perturbation, and
    ``z`` a gadget-coset sample with ``G z = target - A p``, so the
    congruence is exact by construction and the sum is spherical.  All
    jobs share one draw of the ``M1`` halves, one of the standard normals,
    one rounding of ``p`` and one gadget walk over ``J n t`` targets; the
    factor and ``R`` products stay per job, since the trapdoors differ.
    """
    q, n, m = params.q, params.n, params.m
    count, t = len(jobs), np.shape(jobs[0][3])[1]
    shapes = {
        (np.shape(a), np.shape(m1), sum(trap.r.shape), np.shape(u)) for a, m1, trap, u in jobs
    }
    if shapes != {((n, m), (n, m), m, (n, t))}:
        raise InvalidParams("preimage jobs do not match the parameter shapes")

    e2 = sample_z_batch(params.sigma, (count, m, t), rng)
    w = int_gadget_width(m)
    normals = rng.normal(count * m * t).reshape(count, m, t)
    y = np.empty((count, m, t))
    for j, (_, _, trap, _) in enumerate(jobs):
        m_bar = trap.r.shape[0]
        g_base, g_gadget = normals[j, :m_bar], normals[j, m_bar:]
        y[j, :m_bar] = trap.chol @ g_base - (w * w / trap.sqrt_d) * (trap.r @ g_gadget)
        y[j, m_bar:] = trap.sqrt_d * g_gadget
    y /= math.sqrt(2.0 * math.pi)
    p = sample_z_reject(params.sigma_r, y, rng)                      # (J, m, t)

    v = np.empty((count, n, t), dtype=np.int64)
    for j, (a_mat, m1_mat, _, u_mat) in enumerate(jobs):
        target = u_mat - _mul_signed(m1_mat, e2[j], q)
        v[j] = (target - _mul_signed(a_mat, p[j], q)) % q
    z = sample_g_batch(w, v.reshape(-1), q, rng)                     # (J n t, k)
    z = z.reshape(count, n, t, -1).transpose(0, 1, 3, 2).reshape(count, -1, t)
    e1 = p + np.stack([
        np.concatenate([_exact_matmul(trap.r, z_j, q), z_j])
        for (_, _, trap, _), z_j in zip(jobs, z)
    ])
    return np.concatenate([e1, e2], axis=1)
