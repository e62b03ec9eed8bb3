"""Discrete Gaussian samplers: integers, ring vectors, gadget cosets, and
structured perturbations.

Width convention: a width ``s`` weights integers by ``exp(-pi x^2 / s^2)``,
giving standard deviation ``s / sqrt(2 pi)``.  Every sampler truncates at
``tail_cut * s`` around its center.

Three engines cooperate here:

* a vectorized inverse-CDF sampler over the truncated window
  (:func:`sample_z_batch`).  The window is laid out window-major, one row
  per candidate offset, so the CDF builds with one vector add per row;
  when every center is zero all draws share a single CDF row, searched
  by bisection.  Very wide Gaussians fall back to a continuous-plus-
  rounding convolution;
* a batched randomized nearest-plane walk (:func:`klein_batch`) over a
  cached orthogonalization, which the gadget-coset sampler runs;
* one gadget-first factorization of the trapdoor perturbation covariance
  ``zeta'^2 I - alpha^2 [T; I][T; I]*`` (:func:`gadget_first_factor`),
  shared by the ring and integer trapdoors.  The gadget block is scalar,
  so only the rows x rows Schur complement of each T block goes through
  a Cholesky factorization with a pivot floor (:func:`cholesky_pd`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CovarianceNotPD,
    InternalError,
    InvalidParams,
    WidthTooSmall,
)
from .params import T_TAIL
from .ring import RingContext, RingElement
from .rng import XofRng

_CDT_WIDTH_LIMIT = 32.0
_CONV_ROUND_WIDTH = 8.0


def sample_z_batch(
    width: float,
    centers: np.ndarray,
    rng: XofRng,
    tail_cut: float = float(T_TAIL),
) -> np.ndarray:
    """Vectorized draws from D_{Z, width, centers[i]}, one per center.

    Widths up to 32 use exact inverse-CDF sampling over the truncated
    window.  Wider Gaussians split into a continuous draw of the excess
    variance plus a narrow randomized rounding, whose convolution matches
    the target width.
    """
    if width < 1.0:
        raise WidthTooSmall(f"width {width} below the supported minimum 1.0")
    centers = np.asarray(centers, dtype=np.float64)
    flat = centers.reshape(-1)
    if width > _CDT_WIDTH_LIMIT:
        r = _CONV_ROUND_WIDTH
        sd_extra = math.sqrt(width * width - r * r) / math.sqrt(2.0 * math.pi)
        shifted = flat + rng.normal(flat.size) * sd_extra
        return _cdt_batch(r, shifted, rng, tail_cut).reshape(centers.shape)
    return _cdt_batch(width, flat, rng, tail_cut).reshape(centers.shape)


def _cdt_batch(width: float, centers: np.ndarray, rng: XofRng, tail_cut: float) -> np.ndarray:
    # Enumerating past 5.5 widths adds nothing: the relative weight out
    # there is under 1e-41, invisible to a float64 CDF.  The formal tail
    # cut still masks the window whenever it is the tighter bound.
    reach = tail_cut * width
    span = min(reach, 5.5 * width)
    window = int(math.floor(2.0 * span)) + 1
    # When every center is zero, all draws share one CDF column.
    shared = not centers.any()
    columns = np.zeros(1) if shared else centers
    lo = np.ceil(columns - span)
    # Window-major layout: row j holds candidate lo + j of every column, so
    # the running sum below is one contiguous vector add per row.
    delta = np.add.outer(np.arange(window, dtype=np.float64), lo)
    delta -= columns
    cdf = -math.pi * delta
    cdf *= delta
    cdf /= width * width
    np.exp(cdf, out=cdf)
    if reach < span + 1.0:
        cdf[np.abs(delta) > reach] = 0.0
    for j in range(1, window):
        np.add(cdf[j - 1], cdf[j], out=cdf[j])
    totals = cdf[-1]
    if not (totals > 0).all():
        raise InternalError("empty discrete Gaussian window")
    if shared:
        u = rng.uniform01(centers.size) * totals[0]
        idx = np.searchsorted(cdf[:, 0], u, side="left")
    else:
        u = rng.uniform01(centers.size) * totals
        idx = np.count_nonzero(cdf < u, axis=0)
    return lo.astype(np.int64) + np.minimum(idx, window - 1)


def sample_ring(width: float, ctx: RingContext, rng: XofRng) -> RingElement:
    """One ring element with independent centered Gaussian coefficients."""
    return RingElement(
        sample_z_batch(width, np.zeros(ctx.n), rng) % ctx.q, ctx
    )


def sample_ring_array(width: float, count: int, ctx: RingContext, rng: XofRng) -> np.ndarray:
    """(count, n) canonical coefficient array of Gaussian ring elements."""
    draws = sample_z_batch(width, np.zeros((count, ctx.n)), rng)
    return draws % ctx.q


# ---------------------------------------------------------------------------
# Randomized nearest-plane over a cached orthogonalization
# ---------------------------------------------------------------------------


@dataclass
class OrthoBasis:
    """Integer basis columns with their Gram-Schmidt data (via QR)."""

    basis: np.ndarray      # (dim, dim) int64, columns are basis vectors
    gs_q: np.ndarray       # (dim, dim) float64, orthonormal directions
    gs_norms: np.ndarray   # (dim,) float64, orthogonalized column lengths

    @classmethod
    def from_basis(cls, basis: np.ndarray) -> "OrthoBasis":
        b = np.asarray(basis, dtype=np.int64)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise InvalidParams(f"basis must be square, got {b.shape}")
        q_mat, r_mat = np.linalg.qr(b.astype(np.float64))
        diag = np.diag(r_mat).copy()
        if (np.abs(diag) < 1e-9).any():
            raise InvalidParams("basis is numerically singular")
        flip = np.sign(diag)
        q_mat = q_mat * flip[None, :]
        return cls(basis=b, gs_q=q_mat, gs_norms=np.abs(diag))

    @property
    def max_gs_norm(self) -> float:
        return float(self.gs_norms.max())


def klein_batch(
    ortho: OrthoBasis,
    centers: np.ndarray,
    width: float,
    rng: XofRng,
    tail_cut: float = float(T_TAIL),
) -> np.ndarray:
    """Batched randomized nearest-plane: lattice points near each center.

    ``centers`` has shape (batch, dim); the result holds integer lattice
    vectors of :attr:`OrthoBasis.basis` distributed close to
    D_{Lambda, width, center} when ``width`` clears every per-level floor.
    """
    basis = ortho.basis
    dim = basis.shape[0]
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if centers.shape[1] != dim:
        raise InvalidParams(f"centers must have dimension {dim}")
    if width / float(ortho.gs_norms.max()) < 1.0:
        raise WidthTooSmall(
            f"width {width} under the orthogonalized norm {ortho.max_gs_norm}"
        )
    residual = centers.copy()
    out = np.zeros((centers.shape[0], dim), dtype=np.int64)
    for i in range(dim - 1, -1, -1):
        direction = ortho.gs_q[:, i]
        level_width = width / float(ortho.gs_norms[i])
        level_centers = residual @ direction / float(ortho.gs_norms[i])
        z = sample_z_batch(level_width, level_centers, rng, tail_cut)
        out += z[:, None] * basis[None, :, i]
        residual -= z[:, None].astype(np.float64) * basis[None, :, i].astype(np.float64)
    return out


# ---------------------------------------------------------------------------
# Gadget coset sampling
# ---------------------------------------------------------------------------


def gadget_vector(k: int) -> np.ndarray:
    """Powers of two (1, 2, ..., 2^(k-1))."""
    return np.int64(1) << np.arange(k, dtype=np.int64)


def gadget_basis(q: int, k: int) -> np.ndarray:
    """Public basis of the integer gadget kernel lattice.

    Column ``i < k-1`` is ``2 e_i - e_{i+1}``; the last column is the bit
    decomposition of ``q``.  Every column is orthogonal to the gadget
    vector modulo ``q``, and the orthogonalized norms stay below sqrt(5).
    """
    if k != int(q).bit_length():
        raise InvalidParams(f"gadget length {k} does not match modulus {q}")
    basis = np.zeros((k, k), dtype=np.int64)
    for i in range(k - 1):
        basis[i, i] = 2
        basis[i + 1, i] = -1
    basis[:, k - 1] = (q >> np.arange(k, dtype=np.int64)) & 1
    return basis


def bit_decompose(values: np.ndarray, k: int) -> np.ndarray:
    """(…, k) little-endian bits of nonnegative integers below 2^k."""
    v = np.asarray(values, dtype=np.int64)
    return (v[..., None] >> np.arange(k, dtype=np.int64)) & 1


@dataclass
class GadgetContext:
    """Cached gadget data for one modulus."""

    q: int
    k: int
    ortho: OrthoBasis

    @classmethod
    def for_modulus(cls, q: int) -> "GadgetContext":
        k = int(q).bit_length()
        return cls(q=q, k=k, ortho=OrthoBasis.from_basis(gadget_basis(q, k)))


_gadget_cache: dict[int, GadgetContext] = {}


def get_gadget(q: int) -> GadgetContext:
    g = _gadget_cache.get(q)
    if g is None:
        g = _gadget_cache[q] = GadgetContext.for_modulus(q)
    return g


def sample_g_batch(width: float, targets: np.ndarray, q: int, rng: XofRng) -> np.ndarray:
    gadget = get_gadget(q)
    t = bit_decompose(np.asarray(targets, dtype=np.int64) % q, gadget.k)
    lattice = klein_batch(gadget.ortho, -t.astype(np.float64), width, rng)
    return t + lattice


def sample_poly_g_array(sigma: float, v_coeffs: np.ndarray, ctx: RingContext, rng: XofRng) -> np.ndarray:
    """Gadget preimages of a ring target as a (k, n) integer array
    (unreduced): rows z_i with sum 2^i z_i = v.

    The coefficient slots are independent integer gadget cosets, so this is
    n batched calls of the scalar sampler at width sqrt(5) * sigma.
    """
    width = math.sqrt(5.0) * sigma
    return sample_g_batch(width, v_coeffs, ctx.q, rng).T


# ---------------------------------------------------------------------------
# Trapdoor perturbations (ring and integer)
# ---------------------------------------------------------------------------


def embed_complex(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Evaluate real coefficient rows at the odd complex 2n-th roots."""
    twist = np.exp(1j * math.pi * np.arange(n) / n)
    return n * np.fft.ifft(np.asarray(coeffs, dtype=np.float64) * twist, axis=-1)


def unembed_complex(evals: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`embed_complex`; returns the real coefficient rows."""
    twist = np.exp(1j * math.pi * np.arange(n) / n)
    return (np.fft.fft(evals, axis=-1) / (n * twist)).real


def cholesky_pd(cov: np.ndarray, width_sq: float) -> np.ndarray:
    """Lower Cholesky factor of a covariance, or of a stack of them.

    Raises :class:`CovarianceNotPD` unless the covariance is positive
    definite with every squared pivot above ``1e-9 * width_sq``.
    """
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise CovarianceNotPD("perturbation covariance not positive definite") from exc
    pivots = np.abs(np.diagonal(chol, axis1=-2, axis2=-1)) ** 2
    if float(pivots.min()) <= 1e-9 * width_sq:
        raise CovarianceNotPD(
            f"smallest covariance pivot {float(pivots.min()):.3e} under "
            f"1e-9 times the squared width {width_sq:.3e}"
        )
    return chol


def gadget_first_factor(
    t_blocks: np.ndarray, zeta_sq: float, alpha_sq: float, width_sq: float
) -> tuple[float, np.ndarray]:
    """Gadget-first factor of ``zeta'^2 I - alpha^2 [T; I][T; I]*`` for a
    stack ``(..., rows, k)`` of real or complex T blocks (``zeta_sq`` is
    ``zeta'^2``; Micciancio-Peikert 2012, Sec. 5.4).  Returns ``sqrt(d)``,
    ``d = zeta'^2 - alpha^2``, and the Cholesky factor ``L`` of the Schur
    complement ``zeta'^2 I - (alpha^2 zeta'^2 / d) T T*``, both through the
    pivot floor of :func:`cholesky_pd`: gadget coordinates
    ``sqrt(d) g_gadget`` and base coordinates
    ``L g_base - (alpha^2 / sqrt(d)) T g_gadget`` then have the covariance.
    """
    d = zeta_sq - alpha_sq
    # The gadget block is d I; a 1x1 factor puts d under the same floor.
    sqrt_d = float(cholesky_pd(np.array([[d]]), width_sq)[0, 0])
    schur = -(alpha_sq * zeta_sq / d) * (t_blocks @ np.swapaxes(t_blocks.conj(), -1, -2))
    idx = np.arange(t_blocks.shape[-2])
    schur[..., idx, idx] += zeta_sq
    return sqrt_d, cholesky_pd(schur, width_sq)


class PerturbationCov:
    """Covariance ``zeta^2 I - alpha^2 [T; I][T; I]*`` with sampling support.

    The covariance lives over the ring, so its coefficient embedding is
    block-diagonal in the evaluation domain: one Hermitian (rows+k) x
    (rows+k) matrix per slot.  After reserving the randomized-rounding
    width, ``Sigma = zeta'^2 I - alpha^2 [T; I][T; I]*`` is factored by
    :func:`gadget_first_factor` with the slot values of ``T`` as a stack
    of (rows, k) blocks, which yields ``sqrt(d)`` and one rows x rows Schur
    factor per slot; :meth:`sample` then costs two slotwise products plus
    a rounding pass.
    """

    def __init__(
        self,
        zeta: float,
        alpha: float,
        t_arr: np.ndarray,
        ctx: RingContext,
        round_width: float = 1.0,
    ):
        rows, k, n = t_arr.shape
        if n != ctx.n:
            raise InvalidParams("trapdoor degree does not match context")
        if round_width < 1.0:
            raise WidthTooSmall("rounding width below 1.0")
        self.ctx = ctx
        self.rows = rows
        self.m = rows + k
        self.round_width = float(round_width)

        alpha_sq, width_sq = float(alpha) ** 2, float(zeta) ** 2
        self._t_hat = embed_complex(ctx.balanced(t_arr), n)   # (rows, k, n)
        self._sqrt_d, self._schur_chol = gadget_first_factor(
            np.moveaxis(self._t_hat, 2, 0), width_sq - self.round_width**2, alpha_sq, width_sq
        )
        self._t_scale = alpha_sq / self._sqrt_d

    def sample(self, rng: XofRng) -> np.ndarray:
        """(m, n) integer perturbation with covariance ``zeta^2 I - alpha^2 ...``."""
        n, rows = self.ctx.n, self.rows
        g = rng.normal(self.m * n).reshape(self.m, n)
        g_hat = embed_complex(g, n)
        base_hat = np.einsum("jab,bj->aj", self._schur_chol, g_hat[:rows])
        base_hat -= self._t_scale * np.einsum("akj,kj->aj", self._t_hat, g_hat[rows:])
        y = np.empty((self.m, n))
        y[:rows] = unembed_complex(base_hat, n)
        y[rows:] = self._sqrt_d * g[rows:]
        y /= math.sqrt(2.0 * math.pi)
        return sample_z_batch(self.round_width, y, rng)
