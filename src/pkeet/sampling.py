"""Discrete Gaussian samplers: integers, ring vectors, gadget cosets, and
structured perturbations.

Width convention: a width ``s`` weights integers by ``exp(-pi x^2 / s^2)``,
giving standard deviation ``s / sqrt(2 pi)``.  Every inverse-CDF draw is
cut at ``5.5 s`` around its center, inside the ``T_TAIL * s`` bound (12
widths) that parameter derivation and the frame range of ``R`` assume.

Two integer kernels, one job each, feed the rest:

* a zero-centred inverse-CDF sampler (:func:`sample_z_batch`): one CDF
  row over the window around 0, built by one cumulative sum at any width.
  Every discrete Gaussian that reaches a key or a ciphertext (trapdoors,
  encryption noise) is zero-centred and comes from here, so those outputs
  stay reproducible byte for byte;
* a rejection sampler (:func:`sample_z_reject`) for arbitrary centers:
  one cached half-Gaussian CDF row per width, a sign bit and a Bernoulli
  acceptance, redrawn in rounds.  It is exact but variable-time, and
  serves the draws of preimage sampling (perturbation rounding and the
  gadget walk), whose randomness never reaches an output.

Both look up a stream uniform in their row through a bucket table on its
top ``g`` bits (:class:`_CdfRow`), which gives exactly the index that
bisection of the uniform gives and bisects only the uniforms of buckets
that a row entry splits.  The zero-centred sampler reads one 64-bit word
per draw.  The rejection sampler reads its uniforms lazily
(:func:`_reject_round`): ``g // 8 + 2`` bytes per candidate, 3 at every
row the schemes reject from, and one more word only for a split bucket or
an acceptance tie, against 16 bytes for two whole words.  Each draw is
the same function of two 53-bit uniforms as with whole words, so every
distribution is exactly the same.

On top of them sit the gadget-coset sampler (:func:`sample_g_batch`), a
randomized nearest-plane walk over the fixed basis of the gadget kernel
lattice in which each target moves down a level as soon as its draw is
accepted, and one gadget-first factorization of the trapdoor perturbation
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
    lo, row = _zero_centred_cdf(float(width))
    idx = row.index(rng.uniform01(int(np.prod(shape))))
    idx += lo
    return idx.reshape(shape)


def _unit(words: np.ndarray) -> np.ndarray:
    """Stream uniforms ``(w >> 11) 2^-53`` in [0, 1), as ``XofRng.uniform01``."""
    u = (words >> np.uint64(11)).astype(np.float64)
    u *= 2.0**-53
    return u


def _search(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF index of each stream uniform by bisection.  ``u * cdf[-1]``
    never exceeds ``cdf[-1]`` for ``u < 1``, so every index lies in the row."""
    return np.searchsorted(cdf, u * cdf[-1], side="left")


class _CdfRow:
    """A read-only CDF row and its bucket table over stream uniforms.

    :meth:`index` gives each stream uniform ``u`` the same index as
    :func:`_search`, mostly by one table read (a guide table, Chen and Asau
    1974).  The table has ``2^g`` buckets, ``g = min(16, bit_length(len(row))
    + 6)``; bucket ``j = floor(u 2^g)`` holds the uniforms of the stream
    words whose top ``g`` bits are ``j``, as ``u = (w >> 11) 2^-53`` makes
    ``u 2^g`` exact.

    The read is exact: ``fl(u * cdf[-1])`` and the bisection index never
    decrease as ``u`` grows, so the index of each uniform in bucket ``j``
    lies between those of the bucket's first and last uniforms, the ones of
    its first and last words.  Where the two agree the table holds that
    index; where a row entry splits the bucket it holds -1, and only those
    uniforms are searched.  At most ``len(row)`` buckets are split, so
    below 1,024 entries at most 1/64 of the draws are.
    """

    __slots__ = ("cdf", "table", "bits", "scale")

    def __init__(self, weights: np.ndarray):
        """Row and table of ``weights``, which the row is summed into."""
        self.cdf = np.cumsum(weights, out=weights)
        self.cdf.flags.writeable = False
        self.bits = bits = min(16, self.cdf.size.bit_length() + 6)
        self.scale = float(1 << bits)
        first = np.arange(1 << bits, dtype=np.uint64) << np.uint64(64 - bits)
        lo = _search(self.cdf, _unit(first))
        hi = _search(self.cdf, _unit(first | np.uint64((1 << (64 - bits)) - 1)))
        self.table = np.where(lo == hi, lo, -1)
        self.table.flags.writeable = False

    def index(self, u: np.ndarray) -> np.ndarray:
        """Writable int64 inverse-CDF index of each stream uniform."""
        # u 2^g is exact, so the cast floors it to the word's top g bits.
        idx = self.table[(u * self.scale).astype(np.int64)]
        if idx.min(initial=0) < 0:
            split = idx < 0
            idx[split] = _search(self.cdf, u[split])
        return idx

    def complete(self, bucket: np.ndarray, rng: XofRng) -> np.ndarray:
        """Writable int64 index of a uniform known only by its bucket, its
        top ``g`` bits.  Each bucket that a row entry splits reads one
        stream word ``w``, in bucket order, for the bits below: the uniform
        is that of the word ``bucket 2^(64-g) + (w >> g)``, as if the
        bucket and ``w`` were one stream word."""
        idx = self.table[bucket]
        split = np.flatnonzero(idx < 0)
        if split.size:
            words = bucket[split].astype(np.uint64) << np.uint64(64 - self.bits)
            words |= rng.u64(split.size) >> np.uint64(self.bits)
            idx[split] = _search(self.cdf, _unit(words))
        return idx


@functools.lru_cache(maxsize=16)
def _zero_centred_cdf(width: float) -> tuple[int, _CdfRow]:
    """Lowest window value and CDF row of D_{Z, width} around 0."""
    # Enumerating past 5.5 widths adds nothing: the relative weight out
    # there is under 1e-41, invisible to a float64 CDF.
    span = 5.5 * width
    window = int(math.floor(2.0 * span)) + 1
    lo = math.ceil(-span)
    delta = np.arange(window, dtype=np.float64) + lo
    weights = -math.pi * delta
    weights *= delta
    weights /= width * width
    np.exp(weights, out=weights)
    return lo, _CdfRow(weights)


def sample_z_reject(width: float, centers: np.ndarray, rng: XofRng) -> np.ndarray:
    """Draws from D_{Z, width, centers[i]} by rejection, one per center.

    Each center splits as ``floor(c) + r`` with ``r`` in [0, 1).  A
    candidate ``z = b + (2b - 1) z0`` takes ``z0 >= 0`` from one half-Gaussian
    CDF row at ``s0 = width``, cut at 5.5 widths, and a sign bit ``b``; it
    is accepted with probability ``exp(pi z0^2/s0^2 - pi (z - r)^2/width^2)``,
    at most 1 because ``|z - r| >= z0``.  Centers whose candidate is
    rejected draw again, in rounds of :func:`_reject_round`, until every
    one is accepted (Falcon's SamplerZ; Howe, Prest, Ricosset and Rossi,
    PQCrypto 2020).

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
    row = _half_gaussian_cdf(float(width))
    coef_t = -math.pi / (width * width)
    out = floor.astype(np.int64)
    pending = np.arange(frac.size)
    while pending.size:
        z, accept = _reject_round(row, frac[pending], coef_t, None, rng)
        out[pending[accept]] += z[accept]
        pending = pending[~accept]
    return out.reshape(centers.shape)


def _reject_round(
    row: _CdfRow, frac: np.ndarray, coef_t, coef_z, rng: XofRng
) -> tuple[np.ndarray, np.ndarray]:
    """One rejection round: a candidate ``z`` for each fractional center in
    ``frac`` (overwritten), and whether it is accepted.

    Candidates come from the half-Gaussian ``row`` at width ``s0`` and are
    accepted at width ``s <= s0``.  With ``|z - r| = z0 + t``, the log
    acceptance ``pi z0^2/s0^2 - pi (z0 + t)^2/s^2`` is
    ``coef_t t (t + 2 z0) + coef_z z0^2`` with ``coef_t = -pi/s^2`` and
    ``coef_z = -pi (1/s^2 - 1/s0^2)``, scalars or one per center
    (``coef_z`` is ``None`` when ``s = s0``).  Both terms are <= 0, so
    nothing cancels and the acceptance is at most 1.

    The round reads ``nb + 1`` bytes per candidate, ``nb = g // 8 + 1``
    for the row's ``g``-bit table: a little-endian ``nb``-byte word whose
    top ``g`` bits are the bucket and whose lowest bit is ``b``, then the
    top byte of the acceptance uniform.  Then split buckets complete their
    uniform (:meth:`_CdfRow.complete`) and acceptance ties read the rest of
    theirs (:func:`_accept_lazy`), one stream word each, in that order.
    """
    nb = row.bits // 8 + 1
    count = frac.size
    rec = np.frombuffer(rng.bytes(count * (nb + 1)), dtype=np.uint8).reshape(count, nb + 1)
    word = rec[:, 0].astype(np.int64)
    for j in range(1, nb):
        word |= rec[:, j].astype(np.int64) << (8 * j)
    b = (word & 1).astype(bool)
    z0 = row.complete(word >> (8 * nb - row.bits), rng)
    t = frac                      # t = r (b = 0) or 1 - r (b = 1)
    np.subtract(1.0, t, out=t, where=b)
    log_p = 2.0 * z0
    log_p += t
    log_p *= t
    log_p *= coef_t
    if coef_z is not None:
        log_p += coef_z * (z0 * z0)
    accept = _accept_lazy(np.exp(log_p, out=log_p), rec[:, nb], rng)
    np.negative(z0, out=z0, where=~b)      # z = b + (2b - 1) z0
    z0 += b
    return z0, accept


def _accept_lazy(p: np.ndarray, top: np.ndarray, rng: XofRng) -> np.ndarray:
    """Whether ``u < p`` for each probability ``p`` and 53-bit uniform ``u``
    whose top byte is ``top`` (Falcon's ``BerExp`` compares byte by byte).

    With ``P = 256 p``, a top byte below ``floor(P)`` accepts and one above
    rejects, whatever ``u``'s other 45 bits.  Only a tie reads them, as the
    top 45 bits of one stream word, and accepts when they, over ``2^45``,
    fall below ``P - floor(P)``.  Every step is exact in float64.
    """
    big = p * 256.0
    whole = np.floor(big)
    accept = top < whole
    tie = np.flatnonzero(top == whole)
    if tie.size:
        rest = (rng.u64(tie.size) >> np.uint64(19)).astype(np.float64)
        rest *= 2.0**-45
        accept[tie] = rest < big[tie] - whole[tie]
    return accept


@functools.lru_cache(maxsize=16)    # a gadget walk reads two rows
def _half_gaussian_cdf(width: float) -> _CdfRow:
    """CDF row of ``exp(-pi z0^2 / width^2)`` over z0 = 0 .. 5.5 widths."""
    ks = np.arange(int(math.floor(5.5 * width)) + 1, dtype=np.float64)
    return _CdfRow(np.exp(-math.pi * ks * ks / (width * width)))


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


def _walk_directions(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns ``gs_q[:, i] / norm_i`` that turn a residual into level
    ``i``'s center, rounded to multiples of 2^-40, and the norms.

    A residual entry is an integer, so each product with a rounded
    direction is a multiple of 2^-40 and, while every partial sum stays
    below 2^13 in magnitude, exact: a center then has the same bits in
    every summation order, BLAS or not.  Each column's entries sum to at
    most 1.5 in magnitude, so that holds for residual entries below 5,000.
    """
    gs_q, gs_norms = _gadget_gs(basis)
    return np.ldexp(np.rint(np.ldexp(gs_q / gs_norms, 40)), -40), gs_norms


def sample_g_batch(width: float, targets: np.ndarray, q: int, rng: XofRng) -> np.ndarray:
    """(len(targets), k) gadget-coset draws: row z with ``sum_i 2^i z_i = t
    (mod q)`` for each target t, distributed close to D_{Lambda_t, width}.

    A randomized nearest-plane walk over :func:`gadget_basis` from the last
    column down, starting at the target's bit decomposition: each level
    draws one integer at ``width`` over that level's orthogonalized norm.
    Those norms reach sqrt(5), so a narrower ``width`` raises
    :class:`WidthTooSmall`.

    The top level, the widest, is one :func:`sample_z_reject` call.  Below
    it the targets are pipelined: each round of :func:`_reject_round` draws
    one candidate per unfinished target at that target's level, and a
    target moves down a level as soon as its draw is accepted.  One
    half-Gaussian row at the largest of those levels' widths serves all of
    them, each accepted at its own width.  Column ``i < k-1`` is
    ``2 e_i - e_{i+1}`` and direction ``i`` is 0 past coordinate ``i + 1``,
    so level ``i``'s center is the top residual's, from one product, plus
    the draw of level ``i + 1`` times ``-2`` its direction's entry ``i + 1``.
    """
    k = int(q).bit_length()
    basis = gadget_basis(q, k)
    dirs, gs_norms = _walk_directions(basis)
    out = bit_decompose(np.asarray(targets, dtype=np.int64) % q, k)
    top = sample_z_reject(width / float(gs_norms[-1]), -out @ dirs[:, -1], rng)
    out += top[:, None] * basis[None, :, -1]

    # (N, k-1) centers before the levels: an exact int64 product with the
    # directions scaled by 2^40, which are integers, so it has the bits of
    # the exact float64 product and needs no BLAS call.
    base = np.ldexp((-out @ np.ldexp(dirs[:, :-1], 40).astype(np.int64)).astype(np.float64), -40)
    step = -2.0 * np.diagonal(dirs, -1)            # entry i is -2 dirs[i+1, i]
    widths = width / gs_norms[:-1]
    s0 = float(widths.max())
    coef_t = -math.pi / (widths * widths)
    coef_z = coef_t + math.pi / (s0 * s0)
    row = _half_gaussian_cdf(s0)
    # Column i holds level i's draw.  Each round writes every candidate
    # at its target's level; the target leaves the level once its
    # candidate is accepted, so the last write there is the accepted one.
    draws = np.zeros((out.shape[0], k - 1))
    pending = np.arange(out.shape[0])
    level = np.full(pending.size, k - 2)
    above = np.zeros(pending.size)      # each pending target's draw one level up
    while pending.size:
        centers = base[pending, level] + step[level] * above
        floor = np.floor(centers)
        z, accept = _reject_round(row, centers - floor, coef_t[level], coef_z[level], rng)
        z = z + floor
        draws[pending, level] = z
        np.copyto(above, z, where=accept)
        level -= accept
        if level.min() < 0:
            kept = level >= 0
            pending, level, above = pending[kept], level[kept], above[kept]
    draws = draws.astype(np.int64)
    out[:, :-1] += 2 * draws
    out[:, 1:] -= draws
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
