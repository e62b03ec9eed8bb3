"""Discrete Gaussian samplers: integers, ring vectors, gadget cosets, and
structured perturbations.

Width convention: a width ``s`` weights integers by ``exp(-pi x^2 / s^2)``,
giving standard deviation ``s / sqrt(2 pi)``.  Every inverse-CDF draw is
cut at ``5.5 s`` around its center, inside the ``T_TAIL * s`` bound (12
widths) that parameter derivation and the frame range of ``R`` assume.

Two integer kernels, one job each, feed the rest:

* a zero-centred inverse-CDF sampler (:func:`sample_z_batch`): one CDF
  row over the window around 0, built by one cumulative sum at any width
  and searched by bisection.  Every discrete Gaussian that reaches a key
  or a ciphertext (trapdoors, encryption noise) is zero-centred and comes
  from here, so those outputs stay reproducible byte for byte;
* a rejection sampler (:func:`sample_z_reject`) for arbitrary centers:
  one cached half-Gaussian CDF row per width, a sign bit and a Bernoulli
  acceptance, redrawn in rounds.  It is exact but variable-time, and
  serves the draws of preimage sampling (perturbation rounding,
  gadget-walk levels, the integer scheme's ``p`` and ``e2``), whose
  randomness never reaches an output.

On top of them sit the gadget-coset sampler (:func:`sample_g_batch`), a
randomized nearest-plane walk over the fixed basis of the gadget kernel
lattice, and one gadget-first factorization of the trapdoor perturbation
covariance ``zeta'^2 I - alpha^2 [T; I][T; I]*``
(:func:`gadget_first_factor`), shared by the ring and integer trapdoors.
The gadget block is scalar, so only the rows x rows Schur complement of
each T block goes through a Cholesky factorization with a pivot floor
(:func:`cholesky_pd`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CovarianceNotPD, InvalidParams, WidthTooSmall
from .ring import RingContext
from .rng import XofRng

_CDT_WIDTH_LIMIT = 32.0   # only perfbench/spans.py (_count_sample_z) reads it


def sample_z_batch(width: float, shape: int | tuple[int, ...], rng: XofRng) -> np.ndarray:
    """int64 array of ``shape`` with independent draws from D_{Z, width}.

    Exact inverse-CDF sampling over the window of 5.5 widths around 0:
    one shared CDF row at every width and one stream uniform per draw.
    """
    if width < 1.0:
        raise WidthTooSmall(f"width {width} below the supported minimum 1.0")
    lo, cdf = _zero_centred_cdf(float(width))
    # u * cdf[-1] never exceeds cdf[-1], so every index stays in the window.
    u = rng.uniform01(int(np.prod(shape))) * cdf[-1]
    return (lo + np.searchsorted(cdf, u, side="left")).reshape(shape)


@functools.lru_cache(maxsize=16)
def _zero_centred_cdf(width: float) -> tuple[int, np.ndarray]:
    """Lowest window value and read-only CDF row of D_{Z, width} around 0."""
    # Enumerating past 5.5 widths adds nothing: the relative weight out
    # there is under 1e-41, invisible to a float64 CDF.
    span = 5.5 * width
    window = int(math.floor(2.0 * span)) + 1
    lo = math.ceil(-span)
    delta = np.arange(window, dtype=np.float64) + lo
    cdf = -math.pi * delta
    cdf *= delta
    cdf /= width * width
    np.exp(cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf.flags.writeable = False
    return lo, cdf


def sample_z_reject(width: float, centers: np.ndarray, rng: XofRng) -> np.ndarray:
    """Draws from D_{Z, width, centers[i]} by rejection, one per center.

    Each center splits as ``floor(c) + r`` with ``r`` in [0, 1).  A
    candidate ``z = b + (2b - 1) z0`` takes ``z0 >= 0`` from one half-Gaussian
    CDF row at ``s0 = width``, cut at 5.5 widths, and a sign bit ``b``; it
    is accepted with probability ``exp(pi z0^2/s0^2 - pi (z - r)^2/width^2)``,
    at most 1 because ``|z - r| >= z0``.  Centers whose candidate is
    rejected draw again, in rounds, until every one is accepted (Falcon's
    SamplerZ; Howe, Prest, Ricosset and Rossi, PQCrypto 2020).

    The support covers the 5.5-width window of :func:`sample_z_batch`, so
    the draws are exact to float64 precision at every width and center.
    The sampler is variable-time and reads its own stream, so it serves
    only draws that never reach a key or ciphertext.
    """
    if width < 1.0:
        raise WidthTooSmall(f"width {width} below the supported minimum 1.0")
    centers = np.asarray(centers, dtype=np.float64)
    floor = np.floor(centers.reshape(-1))
    frac = centers.reshape(-1) - floor
    cdf = _half_gaussian_cdf(float(width))
    neg_scale = -math.pi / (width * width)
    out = np.empty(frac.size, dtype=np.int64)
    pending = np.arange(frac.size)
    # Each round works in place on a few arrays of the pending size.
    while pending.size:
        count = pending.size
        raw = rng.u64(2 * count)
        b = (raw[:count] & np.uint64(1)).astype(bool)
        raw >>= np.uint64(11)
        u = raw.astype(np.float64)
        u *= 2.0**-53
        # u * cdf[-1] never exceeds cdf[-1], so z0 stays at most 5.5 widths.
        z0 = np.searchsorted(cdf, u[:count] * cdf[-1], side="left")
        # |z - r| = z0 + t with t = r (b = 0) or 1 - r (b = 1), so the log
        # acceptance pi (z0^2 - (z - r)^2) / width^2 is -pi t (t + 2 z0) / width^2.
        t = frac[pending]
        np.subtract(1.0, t, out=t, where=b)
        accept_p = 2.0 * z0
        accept_p += t
        t *= neg_scale
        accept_p *= t
        np.exp(accept_p, out=accept_p)
        accept = u[count:] < accept_p
        np.negative(z0, out=z0, where=~b)      # z = b + (2b - 1) z0
        z0 += b
        done = pending[accept]
        out[done] = floor[done].astype(np.int64) + z0[accept]
        pending = pending[~accept]
    return out.reshape(centers.shape)


@functools.lru_cache(maxsize=256)    # a gadget walk alone uses k <= 56 widths
def _half_gaussian_cdf(width: float) -> np.ndarray:
    """Read-only CDF row of ``exp(-pi z0^2 / width^2)`` over z0 = 0 .. 5.5 widths."""
    ks = np.arange(int(math.floor(5.5 * width)) + 1, dtype=np.float64)
    cdf = np.cumsum(np.exp(-math.pi * ks * ks / (width * width)))
    cdf.flags.writeable = False
    return cdf


def sample_ring_array(width: float, count: int, ctx: RingContext, rng: XofRng) -> np.ndarray:
    """(count, n) canonical coefficient array of Gaussian ring elements."""
    return sample_z_batch(width, (count, ctx.n), rng) % ctx.q


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


def _gadget_gs(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal directions and orthogonalized norms of the basis columns
    (via QR, signs fixed so every norm is positive)."""
    q_mat, r_mat = np.linalg.qr(basis.astype(np.float64))
    diag = np.diag(r_mat)
    return q_mat * np.sign(diag)[None, :], np.abs(diag)


def sample_g_batch(width: float, targets: np.ndarray, q: int, rng: XofRng) -> np.ndarray:
    """(len(targets), k) gadget-coset draws: row z with ``sum_i 2^i z_i = t
    (mod q)`` for each target t, distributed close to D_{Lambda_t, width}.

    A randomized nearest-plane walk over :func:`gadget_basis` from the last
    column down, starting at the target's bit decomposition: each level
    draws one integer at ``width`` over that level's orthogonalized norm.
    Those norms reach sqrt(5), so a narrower ``width`` raises
    :class:`WidthTooSmall`.
    """
    k = int(q).bit_length()
    basis = gadget_basis(q, k)
    gs_q, gs_norms = _gadget_gs(basis)
    out = bit_decompose(np.asarray(targets, dtype=np.int64) % q, k)
    residual = -out.astype(np.float64)
    for i in range(k - 1, -1, -1):
        level_width = width / float(gs_norms[i])
        level_centers = residual @ gs_q[:, i] / float(gs_norms[i])
        z = sample_z_reject(level_width, level_centers, rng)
        if i == k - 1:
            out += z[:, None] * basis[None, :, i]
            residual -= z[:, None].astype(np.float64) * basis[None, :, i].astype(np.float64)
        else:
            # Column 2 e_i - e_{i+1} touches two coordinates of the draw.
            # Of the residual only coordinate i is read again: every later
            # direction gs_q[:, j], j < i, is exactly 0 past coordinate j + 1.
            out[:, i] += 2 * z
            out[:, i + 1] -= z
            residual[:, i] -= 2.0 * z
    return out


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
    :func:`gadget_first_factor` with the slot values of the signed ``T``
    as a stack of (rows, k) blocks, which yields ``sqrt(d)`` and one rows x
    rows Schur factor per slot; :meth:`sample` then costs two slotwise
    products plus a rounding pass.
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
        self._t_hat = embed_complex(t_arr, n)   # (rows, k, n)
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
        return sample_z_reject(self.round_width, y, rng)
