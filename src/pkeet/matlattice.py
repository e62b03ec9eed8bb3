"""Integer-lattice machinery: exact mod-q matrix products, trapdoor matrix
generation with a gadget trapdoor, and Gaussian preimage sampling.

The trapdoor generator outputs ``A = [A_bar | G - A_bar R]`` for a small
random ``R``, so that ``A [R; I] = G`` exactly, with ``G = I_n (x) g`` the
gadget matrix (Micciancio-Peikert, EUROCRYPT 2012, section 5.4).  Preimages
follow the same perturb-then-gadget-sample pattern as the ring scheme: a
perturbation ``p`` with covariance ``sigma^2 I - w^2 [R; I][R; I]^T`` hides
``R``, the remaining syndrome is sampled in the gadget coset at width ``w``,
and the gadget solution re-enters through ``[R; I]``.  As in the ring scheme,
the perturbation is factored gadget-first, through an ``m_bar x m_bar`` factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CovarianceNotPD, GenerationFailed, InvalidParams
from .params import ParamsInt, int_gadget_width
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
_MATMUL_Q_CAP = 1 << 56   # elementwise products ride the exact mulmod kernel


def balanced_mod(values: np.ndarray, q: int) -> np.ndarray:
    """Signed representatives in (-q/2, q/2]."""
    values = np.asarray(values, dtype=np.int64) % q
    return values - q * (values > q // 2)


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact ``a @ b mod q`` for residue matrices of any supported modulus.

    Each elementwise product is reduced before accumulation, so row sums
    stay far below the int64 ceiling; output columns are processed in
    blocks to bound the temporary.
    """
    if q >= _MATMUL_Q_CAP:
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


def _signed_bound_ok(a: np.ndarray, b: np.ndarray) -> bool:
    """True when a direct int64 product of the two matrices cannot overflow."""
    bound = a.shape[1] * int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    return bound < 1 << 62


def _mul_signed(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """``a @ b mod q`` for signed integer matrices, directly when int64 suffices."""
    if _signed_bound_ok(a, b):
        return (a @ b) % q
    return matmul_mod(a % q, b % q, q)


# ---------------------------------------------------------------------------
# Trapdoor generation
# ---------------------------------------------------------------------------


@dataclass
class IntTrapdoor:
    """Gadget trapdoor ``R`` with the gadget-first factor of its
    perturbation covariance ``(sigma^2 - sigma_r^2) I - w^2 [R; I][R; I]^T``
    (see :func:`~pkeet.sampling.gadget_first_factor`); the ``sigma_r^2``
    share is left for the randomized rounding."""

    r: np.ndarray              # (m_bar, n*k) signed int64
    sqrt_d: float              # sqrt(sigma^2 - sigma_r^2 - w^2)
    chol: np.ndarray           # (m_bar, m_bar) float64, lower triangular

    @classmethod
    def from_r(cls, r: np.ndarray, params: ParamsInt) -> "IntTrapdoor":
        """Factor the perturbation covariance of ``R``; raises
        :class:`CovarianceNotPD` when ``sigma`` is too narrow for it."""
        r = np.asarray(r, dtype=np.int64)
        zeta_sq = params.sigma**2 - params.sigma_r**2
        w_sq = int_gadget_width(params.m) ** 2
        return cls(r, *gadget_first_factor(r.astype(np.float64), zeta_sq, w_sq, params.sigma**2))


def gadget_residual(a_mat: np.ndarray, r: np.ndarray, q: int) -> np.ndarray:
    """Exact residual of ``A [R; I] - G (mod q)``; zero when ``R`` is a
    gadget trapdoor of ``A``."""
    n = a_mat.shape[0]
    m_bar, nk = r.shape
    head = _mul_signed(a_mat[:, :m_bar], r, q)
    gadget = np.kron(np.eye(n, dtype=np.int64), gadget_vector(nk // n))
    return (head + a_mat[:, m_bar:] - gadget) % q


def trap_gen_int(params: ParamsInt, rng: XofRng) -> tuple[np.ndarray, IntTrapdoor]:
    """Near-uniform ``A`` (n x m) with a gadget trapdoor ``R``.

    A draw of ``R`` whose perturbation covariance is not positive definite
    at width ``sigma`` is discarded and both matrices are drawn again.
    """
    n, k, q = params.n, params.k, params.q
    nk = n * k
    m_bar = params.m_bar
    if params.m != m_bar + nk:
        raise InvalidParams("matrix width must split as m_bar + n*k")

    gadget = np.kron(np.eye(n, dtype=np.int64), gadget_vector(k))   # G = I_n (x) g
    for _ in range(_TRAPGEN_RETRIES):
        a_bar = mat_uniform(q, n, m_bar, rng)
        r_small = sample_z_batch(params.sigma_r, np.zeros((m_bar, nk)), rng)
        try:
            trap = IntTrapdoor.from_r(r_small, params)
        except CovarianceNotPD:
            continue
        a_tail = (gadget - _mul_signed(a_bar, r_small, q)) % q
        return np.concatenate([a_bar, a_tail], axis=1), trap
    raise GenerationFailed(
        f"no trapdoor with a positive definite perturbation in {_TRAPGEN_RETRIES} draws"
    )


# ---------------------------------------------------------------------------
# Preimage sampling
# ---------------------------------------------------------------------------


def sample_left(
    a_mat: np.ndarray,
    m1_mat: np.ndarray,
    trap: IntTrapdoor,
    u_mat: np.ndarray,
    params: ParamsInt,
    rng: XofRng,
) -> np.ndarray:
    """Columns ``e`` with ``(A | M1) e = U mod q`` and Gaussian profile.

    The second half of each column is a fresh Gaussian of width ``sigma``.
    The first half is ``p + [R z; z]``: ``p`` is the perturbation, and
    ``z`` a gadget-coset sample with ``G z = target - A p``, so the
    congruence is exact by construction and the sum is spherical.
    """
    q, n, k = params.q, params.n, params.k
    a_mat = np.asarray(a_mat, dtype=np.int64)
    m1_mat = np.asarray(m1_mat, dtype=np.int64)
    u_mat = np.asarray(u_mat, dtype=np.int64)
    m = a_mat.shape[1]
    t = u_mat.shape[1]

    e2 = sample_z_reject(params.sigma, np.zeros((m1_mat.shape[1], t)), rng)
    target = (u_mat - _mul_signed(m1_mat, e2, q)) % q

    w = int_gadget_width(m)
    g_base, g_gadget = np.split(rng.normal(m * t).reshape(m, t), [trap.r.shape[0]])
    base = trap.chol @ g_base - (w * w / trap.sqrt_d) * (trap.r @ g_gadget)
    y = np.concatenate([base, trap.sqrt_d * g_gadget]) / math.sqrt(2.0 * math.pi)
    p = sample_z_reject(params.sigma_r, y, rng)                      # (m, t)
    v = (target - _mul_signed(a_mat, p, q)) % q
    z = sample_g_batch(w, v.reshape(-1), q, rng)                     # (n*t, k)
    z = z.reshape(n, t, k).transpose(0, 2, 1).reshape(n * k, t)
    e1 = p + np.concatenate([trap.r @ z, z], axis=0)
    return np.concatenate([e1, e2], axis=0)
