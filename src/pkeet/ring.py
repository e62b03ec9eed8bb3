"""Arithmetic in Z_q[x]/(x^n + 1) with a negacyclic number-theoretic transform.

``n`` must be a power of two and ``q`` a prime with ``q = 1 (mod 2n)`` so
that a primitive ``2n``-th root of unity exists.  The transform evaluates a
polynomial at the odd powers of that root (in a fixed bit-reversed order),
turning ring multiplication into slotwise modular multiplication.

Every ring value is an ``int64`` array of shape ``(..., n)`` with its
coefficients canonical in ``[0, q)``, except the short trapdoor ``T``, held
signed as drawn; :class:`RingElement` wraps one only as the message of an
encryption and the result of a decryption.  Products of
two canonical values can reach ``q^2``, which does not fit in 64 bits, so
:func:`mulmod` recovers the exact product residue from the wrapped low word
minus ``q`` times a float64 quotient estimate.  Both schemes lift residues
to ``(-q/2, q/2]`` with :func:`balanced`, round them to bits with
:func:`decode_bits`, and read a gadget-coded value back through a
trapdoor with :func:`decode_gadget`, which is handed only the gadget
columns :func:`gadget_columns` lists.

Fold bound.  Every modulus lies below ``params.MULMOD_CAP = 2**52``, and
there the estimate is off by at most one multiple of ``q``, so one
compare-and-add and one compare-and-subtract finish the reduction.  Proof:
``a``, ``b`` and ``q`` are exact in float64, and the estimate of
``x = a b / q`` is two correctly rounded steps, ``(a b) / q`` or
``a (b / q)``, so it equals ``x (1 + e1)(1 + e2)`` with
``|e1|, |e2| <= 2**-53``.  As ``x < q``, its error is below
``q (2**-52 + 2**-106) < 1``, its floor is ``floor(x)`` or one off, and
``a b - q floor(estimate)`` lies in ``[-q, 2q)``; that fits int64, so the
wrapped low words give it exactly.  :class:`RingContext` refuses moduli at
or above the cap.  The transforms' ``even +- odd`` sums lie in
``(-q, 2q)`` and take the same compare corrections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDegree, InvalidParams, NotInvertible
from .params import MULMOD_CAP, ParamsRing, is_prime


# The folds compare through an unsigned view: a negative x reads as at least
# 2^63, so x + q wraps below x exactly when x < 0, and x - q wraps above x
# exactly when x < q; one minimum then picks the corrected value.


def _fold_up(x: np.ndarray, q: int) -> None:
    """In place, ``x + q`` where ``x`` is negative: ``[-q, q)`` to ``[0, q)``."""
    u = x.view(np.uint64)
    np.minimum(u, u + q, out=u)


def _fold_down(x: np.ndarray, q: int) -> None:
    """In place, ``x - q`` where ``x >= q``: ``[0, 2q)`` to ``[0, q)``."""
    u = x.view(np.uint64)
    np.minimum(u, u - q, out=u)


def mulmod(a: np.ndarray, b, q: int, b_over_q=None) -> np.ndarray:
    """Exact elementwise ``a * b mod q`` for canonical int64 operands and a
    modulus below ``MULMOD_CAP`` (the fold bound of the module docstring).

    ``b_over_q`` is ``b / q`` in float64, passed when it is precomputed for
    a fixed operand (the transform twiddles); the result is the same.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if b_over_q is None:
        quot = np.multiply(a, b, dtype=np.float64)
        quot /= q
    else:
        quot = np.multiply(a, b_over_q, dtype=np.float64)
    rem = a * b                      # low 64 bits of the product, wrapped
    quot_q = quot.astype(np.int64)
    quot_q *= q
    rem -= quot_q
    _fold_up(rem, q)
    _fold_down(rem, q)
    return rem


def invmod(a: np.ndarray, q: int) -> np.ndarray:
    """Elementwise inverse of nonzero canonical residues modulo the prime ``q``.

    Montgomery's batch inversion in exact Python integers: prefix products,
    one ``pow(acc, -1, q)`` for all of them, then one pass back that peels
    each inverse off, three products per residue.  A zero residue makes the
    whole product zero and raises ``ValueError``; callers check for zeros
    first.
    """
    arr = np.asarray(a, dtype=np.int64)
    values = arr.reshape(-1).tolist()
    prefix = [1] * len(values)
    acc = 1
    for i, value in enumerate(values):
        prefix[i] = acc
        acc = acc * value % q
    inv = pow(acc, -1, q)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % q
        inv = inv * values[i] % q
    return np.array(out, dtype=np.int64).reshape(arr.shape)


def balanced(values: np.ndarray, q: int) -> np.ndarray:
    """Lift canonical residues in [0, q) to the symmetric range (-q/2, q/2]."""
    c = np.asarray(values, dtype=np.int64)
    return c - q * (c > q // 2)


def _bit_reverse_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        out[i] = int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
    return out


class RingContext:
    """Precomputed transform tables for one ``(n, q)`` pair."""

    def __init__(self, n: int, q: int):
        if n < 2 or n & (n - 1):
            raise InvalidDegree(f"degree must be a power of two, got {n}")
        if q >= MULMOD_CAP:
            raise InvalidParams(
                f"modulus {q} is at or above 2**52, outside the multiply kernel range"
            )
        if q % (2 * n) != 1 or not is_prime(q):
            raise InvalidParams(f"q={q} is not a prime congruent to 1 mod {2 * n}")
        self.n = n
        self.q = q
        self.psi = self._find_psi()
        rev = _bit_reverse_permutation(n)
        psi_pows = [pow(self.psi, int(r), q) for r in rev]
        inv_psi = pow(self.psi, 2 * n - 1, q)
        inv_pows = [pow(inv_psi, int(r), q) for r in rev]
        self._psi_rev = np.array(psi_pows, dtype=np.int64)
        self._inv_psi_rev = np.array(inv_pows, dtype=np.int64)
        self._psi_rev_quot = self._psi_rev / q          # twiddle quotients w / q
        self._inv_psi_rev_quot = self._inv_psi_rev / q
        self._n_inv = pow(n, q - 2, q)

    def _find_psi(self) -> int:
        n, q = self.n, self.q
        exp = (q - 1) // (2 * n)
        for base in range(2, 1 << 20):
            cand = pow(base, exp, q)
            if pow(cand, n, q) == q - 1:
                return cand
        raise InvalidParams(f"no primitive 2n-th root found for q={q}")

    def __eq__(self, other) -> bool:
        return isinstance(other, RingContext) and (self.n, self.q) == (other.n, other.q)

    def __hash__(self) -> int:
        return hash((self.n, self.q))

    def __repr__(self) -> str:
        return f"RingContext(n={self.n}, q={self.q})"

    # -- batched kernels on (..., n) int64 arrays ---------------------------

    def _columns(self, arr: np.ndarray) -> np.ndarray:
        """Private (n, rows) copy of a stack of rows.  With the rows side by
        side, each butterfly half is one contiguous run of ``t * rows``
        entries however short the butterfly stride ``t``, and the halves
        update in place."""
        if arr.shape[-1:] != (self.n,):
            raise InvalidDegree(f"expected rows of {self.n} entries, got shape {arr.shape}")
        return arr.reshape(-1, self.n).T.copy()

    def ntt(self, coeffs: np.ndarray) -> np.ndarray:
        """Forward transform; output slots are evaluations in bit-reversed order."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        n, q = self.n, self.q
        a = self._columns(coeffs)
        m = 1
        while m < n:
            v = a.reshape(m, 2, -1)
            even, odd_half = v[:, 0], v[:, 1]
            w, w_quot = self._psi_rev[m : 2 * m, None], self._psi_rev_quot[m : 2 * m, None]
            odd = mulmod(odd_half, w, q, w_quot)
            np.subtract(even, odd, out=odd_half)
            _fold_up(odd_half, q)
            even += odd
            _fold_down(even, q)
            m <<= 1
        return np.ascontiguousarray(a.T).reshape(coeffs.shape)

    def intt(self, evals: np.ndarray) -> np.ndarray:
        """Inverse transform back to canonical coefficients."""
        evals = np.asarray(evals, dtype=np.int64)
        n, q = self.n, self.q
        a = self._columns(evals)
        m = n
        while m > 1:
            h = m >> 1
            v = a.reshape(h, 2, -1)
            upper, lower = v[:, 0], v[:, 1]
            diff = upper - lower
            _fold_up(diff, q)
            upper += lower
            _fold_down(upper, q)
            w, w_quot = self._inv_psi_rev[h : 2 * h, None], self._inv_psi_rev_quot[h : 2 * h, None]
            v[:, 1] = mulmod(diff, w, q, w_quot)
            m = h
        a = mulmod(a, self._n_inv, q, self._n_inv / q)
        return np.ascontiguousarray(a.T).reshape(evals.shape)

    def mul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a_hat, b_hat = self.ntt(np.stack([a, b]))
        return self.intt(mulmod(a_hat, b_hat, self.q))


_context_cache: dict[tuple[int, int], RingContext] = {}


def get_context(params: ParamsRing) -> RingContext:
    key = (params.n, params.q)
    ctx = _context_cache.get(key)
    if ctx is None:
        ctx = _context_cache[key] = RingContext(*key)
    return ctx


# ---------------------------------------------------------------------------
# Messages and test oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingElement:
    """A message or decrypted result: one residue polynomial, coefficients
    canonical in [0, q)."""

    coeffs: np.ndarray
    ctx: RingContext

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.int64)
        if arr.shape != (self.ctx.n,):
            raise InvalidDegree(
                f"expected {self.ctx.n} coefficients, got shape {arr.shape}"
            )
        object.__setattr__(self, "coeffs", arr % self.ctx.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.ctx == other.ctx
            and np.array_equal(self.coeffs, other.coeffs)
        )


def mul_schoolbook(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Quadratic negacyclic product in exact integers; test oracle only."""
    n = len(a)
    out = [0] * n
    ac = [int(x) for x in a]
    bc = [int(x) for x in b]
    for i in range(n):
        if ac[i] == 0:
            continue
        for j in range(n):
            k = i + j
            term = ac[i] * bc[j]
            if k >= n:
                out[k - n] -= term
            else:
                out[k] += term
    return np.array([v % q for v in out], dtype=np.int64)


def is_invertible(slots: np.ndarray) -> bool:
    """A residue polynomial is invertible iff none of its evaluation slots
    (its :meth:`RingContext.ntt`) is zero."""
    return bool((slots != 0).all())


def invert(a: np.ndarray, ctx: RingContext) -> np.ndarray:
    """Slotwise inversion; raises :class:`NotInvertible` on zero slots."""
    evals = ctx.ntt(a)
    if not is_invertible(evals):
        raise NotInvertible("element has a zero evaluation slot")
    return ctx.intt(invmod(evals, ctx.q))


def decode_bits(values: np.ndarray, q: int) -> np.ndarray:
    """Round each value mod ``q`` to a bit: 1 inside [ceil(q/4), floor(3q/4))."""
    c = np.asarray(values, dtype=np.int64) % q
    return ((c >= -(-q // 4)) & (c < (3 * q) // 4)).astype(np.int64)


def gadget_columns(q: int, bound: int) -> list[int]:
    """The gadget columns :func:`decode_gadget` reads for errors of at most
    ``bound``: column 0, then each time the widest column ``j`` whose
    ``2^j`` times the current uncertainty, plus ``bound``, stays below
    ``q / 2``, until the uncertainty is zero.

    Column 0 leaves an uncertainty of ``bound``.  A column ``j`` read with
    uncertainty ``d`` lifts ``2^j d + e_j`` exactly, and rounding it over
    ``2^j`` leaves ``floor(bound / 2^j + 1/2)``.  Raises
    :class:`InvalidParams` when no column shrinks the uncertainty: the
    bound does not fit ``q``.
    """
    k = q.bit_length()
    cols, spread = [0], bound
    while spread:
        # The widest j with 2 (2^j spread + bound) < q, at most k - 1.
        j = min(k - 1, max(0, (q - 2 * bound - 1) // spread).bit_length() - 2)
        if j < 1 or (bound + (1 << (j - 1))) >> j >= spread:
            raise InvalidParams(f"gadget error bound {bound} does not fit the modulus {q}")
        cols.append(j)
        spread = (bound + (1 << (j - 1))) >> j
    return cols


def decode_gadget(w: np.ndarray, q: int, bound: int) -> np.ndarray:
    """The ``y`` with ``w_j = 2^j y + e_j (mod q)`` when every ``|e_j| <=
    bound``; otherwise some residue.  ``w`` holds one row per column ``j``
    that :func:`gadget_columns` lists, in that order, shape (len(cols),
    ...): the first row (column 0) is the estimate, and each later row
    refines it by the rounded lift of its residual."""
    w = np.asarray(w, dtype=np.int64)
    y = w[0] % q
    for j, w_j in zip(gadget_columns(q, bound)[1:], w[1:]):
        r = balanced((w_j - mulmod(y, (1 << j) % q, q)) % q, q)
        y = (y + ((r + (1 << (j - 1))) >> j)) % q
    return y


# ---------------------------------------------------------------------------
# Batched helpers used by the scheme layers
# ---------------------------------------------------------------------------


def dot_ntt(evals_a: np.ndarray, evals_b: np.ndarray, ctx: RingContext) -> np.ndarray:
    """Slotwise sum of products of two (..., m, n) evaluation stacks over m."""
    prod = mulmod(evals_a, evals_b, ctx.q)
    return prod.sum(axis=-2) % ctx.q
