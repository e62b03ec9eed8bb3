"""Arithmetic in Z_q[x]/(x^n + 1) with a negacyclic number-theoretic transform.

``n`` must be a power of two and ``q`` a prime with ``q = 1 (mod 2n)`` so
that a primitive ``2n``-th root of unity exists.  The transform evaluates a
polynomial at the odd powers of that root (in a fixed bit-reversed order),
turning ring multiplication into slotwise modular multiplication.

Coefficients are stored canonically in ``[0, q)`` as ``int64``.  Products of
two canonical values can reach ``q^2``, which does not fit in 64 bits, so
:func:`mulmod` recovers the exact product residue from the wrapped low word
plus a float64 quotient estimate.  The estimate is off by at most a few
multiples of ``q`` whenever ``q < 2**57``, and one final ``% q`` absorbs the
slack; moduli at or above ``2**57`` are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDegree,
    InvalidParams,
    NotInvertible,
    ParamsMismatch,
)
from .params import MULMOD_CAP, ParamsRing, is_prime
from .rng import XofRng


def mulmod(a: np.ndarray, b, q: int) -> np.ndarray:
    """Exact elementwise ``a * b mod q`` for canonical int64 operands."""
    au = a.astype(np.uint64)
    bu = np.asarray(b, dtype=np.int64).astype(np.uint64)
    low = au * bu
    quot = (a.astype(np.float64) * np.asarray(b, dtype=np.float64) / q).astype(np.uint64)
    rem = (low - quot * np.uint64(q)).astype(np.int64)
    return rem % q


def invmod(a: np.ndarray, q: int) -> np.ndarray:
    """Elementwise inverse of nonzero canonical residues modulo the prime ``q``.

    Fermat's ``a^(q-2)`` by square-and-multiply over the bits of ``q - 2``,
    one vectorized :func:`mulmod` per step, so the result is exact.
    """
    result = np.ones_like(a, dtype=np.int64)
    power = np.asarray(a, dtype=np.int64)
    e = q - 2
    while e:
        if e & 1:
            result = mulmod(result, power, q)
        e >>= 1
        if e:
            power = mulmod(power, power, q)
    return result


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
                f"modulus {q} is at or above 2**57, outside the multiply kernel range"
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

    def ntt(self, coeffs: np.ndarray) -> np.ndarray:
        """Forward transform; output slots are evaluations in bit-reversed order."""
        a = np.array(coeffs, dtype=np.int64)
        n, q = self.n, self.q
        batch = a.shape[:-1]
        t = n
        m = 1
        while m < n:
            t >>= 1
            v = a.reshape(*batch, m, 2, t)
            w = self._psi_rev[m : 2 * m].reshape(m, 1)
            even = v[..., 0, :].copy()
            odd = mulmod(v[..., 1, :], w, q)
            v[..., 0, :] = (even + odd) % q
            v[..., 1, :] = (even - odd) % q
            m <<= 1
        return a

    def intt(self, evals: np.ndarray) -> np.ndarray:
        """Inverse transform back to canonical coefficients."""
        a = np.array(evals, dtype=np.int64)
        n, q = self.n, self.q
        batch = a.shape[:-1]
        t = 1
        m = n
        while m > 1:
            h = m >> 1
            v = a.reshape(*batch, h, 2, t)
            w = self._inv_psi_rev[h : 2 * h].reshape(h, 1)
            upper = v[..., 0, :].copy()
            lower = v[..., 1, :].copy()
            v[..., 0, :] = (upper + lower) % q
            v[..., 1, :] = mulmod((upper - lower) % q, w, q)
            t <<= 1
            m = h
        return mulmod(a, np.int64(self._n_inv), q)

    def mul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.intt(mulmod(self.ntt(a), self.ntt(b), self.q))

    def balanced(self, coeffs: np.ndarray) -> np.ndarray:
        """Lift canonical residues to the symmetric range (-q/2, q/2]."""
        c = np.asarray(coeffs, dtype=np.int64)
        return np.where(c > self.q // 2, c - self.q, c)


_context_cache: dict[tuple[int, int], RingContext] = {}


def get_context(params: ParamsRing) -> RingContext:
    key = (params.n, params.q)
    ctx = _context_cache.get(key)
    if ctx is None:
        ctx = _context_cache[key] = RingContext(*key)
    return ctx


# ---------------------------------------------------------------------------
# Element-level API
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingElement:
    """One residue polynomial, coefficients canonical in [0, q)."""

    coeffs: np.ndarray
    ctx: RingContext

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.int64)
        if arr.shape != (self.ctx.n,):
            raise InvalidDegree(
                f"expected {self.ctx.n} coefficients, got shape {arr.shape}"
            )
        object.__setattr__(self, "coeffs", arr % self.ctx.q)

    def _check(self, other: "RingElement") -> None:
        if self.ctx != other.ctx:
            raise ParamsMismatch(f"mixed contexts {self.ctx} and {other.ctx}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement((self.coeffs + other.coeffs) % self.ctx.q, self.ctx)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement((self.coeffs - other.coeffs) % self.ctx.q, self.ctx)

    def __neg__(self) -> "RingElement":
        return RingElement((-self.coeffs) % self.ctx.q, self.ctx)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ctx.mul_coeffs(self.coeffs, other.coeffs), self.ctx)

    def scale(self, value: int) -> "RingElement":
        return RingElement(mulmod(self.coeffs, np.int64(value % self.ctx.q), self.ctx.q), self.ctx)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.ctx == other.ctx
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def balanced(self) -> np.ndarray:
        return self.ctx.balanced(self.coeffs)

    def to_bytes(self) -> bytes:
        """Canonical encoding: n little-endian 8-byte words, ascending degree."""
        return self.coeffs.astype("<u8").tobytes()


def mul_schoolbook(a: RingElement, b: RingElement) -> RingElement:
    """Quadratic negacyclic product in exact integers; test oracle only."""
    a._check(b)
    n, q = a.ctx.n, a.ctx.q
    out = [0] * n
    ac = [int(x) for x in a.coeffs]
    bc = [int(x) for x in b.coeffs]
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
    return RingElement(np.array([v % q for v in out], dtype=np.int64), a.ctx)


def is_invertible(a: RingElement) -> bool:
    """A residue polynomial is invertible iff no evaluation slot is zero."""
    return bool((a.ctx.ntt(a.coeffs) != 0).all())


def invert(a: RingElement) -> RingElement:
    """Slotwise Fermat inversion; raises :class:`NotInvertible` on zero slots."""
    q = a.ctx.q
    evals = a.ctx.ntt(a.coeffs)
    if (evals == 0).any():
        raise NotInvertible("element has a zero evaluation slot")
    return RingElement(a.ctx.intt(invmod(evals, q)), a.ctx)


def sample_uniform(ctx: RingContext, rng: XofRng) -> RingElement:
    return RingElement(rng.uniform_mod(ctx.q, ctx.n), ctx)


def encode_message(bits, ctx: RingContext) -> RingElement:
    """Pack a 0/1 coefficient vector into an element of the message space."""
    arr = np.asarray(bits, dtype=np.int64)
    if arr.shape != (ctx.n,) or ((arr != 0) & (arr != 1)).any():
        raise InvalidParams("message must be a 0/1 vector of length n")
    return RingElement(arr, ctx)


def scale_halfq(message: RingElement) -> RingElement:
    """Lift a message-space element by the half-modulus step floor(q/2)."""
    return message.scale(message.ctx.q // 2)


def decode_bits(w: RingElement) -> np.ndarray:
    """Round each coefficient to a bit: 1 inside [ceil(q/4), floor(3q/4))."""
    q = w.ctx.q
    lo = -(-q // 4)
    hi = (3 * q) // 4
    c = w.coeffs
    return ((c >= lo) & (c < hi)).astype(np.int64)


# ---------------------------------------------------------------------------
# Batched helpers used by the scheme layers
# ---------------------------------------------------------------------------


def dot_ntt(evals_a: np.ndarray, evals_b: np.ndarray, ctx: RingContext) -> np.ndarray:
    """Slotwise sum of products of two (m, n) evaluation stacks."""
    prod = mulmod(evals_a, evals_b, ctx.q)
    return prod.sum(axis=0) % ctx.q
