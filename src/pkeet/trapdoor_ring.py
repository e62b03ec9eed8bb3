"""Tagged gadget trapdoors for ring vectors and Gaussian preimage sampling.

A trapdoor for the vector ``a`` is a small matrix ``T`` with
``a^T [T; I] = tag * g^T`` where ``g = (1, 2, ..., 2^(k-1))``.  Key
generation draws ``T`` Gaussian and completes the vector so the identity
holds exactly; shifting the vector by ``(0, h*g)`` shifts the tag by ``h``
without touching ``T``.  Preimage sampling follows the perturb-then-correct
pattern: a structured perturbation hides ``T``, the remaining syndrome is
solved in the gadget coset, and the correction re-enters through ``[T; I]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CovarianceNotPD,
    GenerationFailed,
    InvalidParams,
    ParamsMismatch,
    TagNotInvertible,
)
from .params import ParamsRing
from .ring import (
    RingContext,
    RingElement,
    dot_ntt,
    get_context,
    invmod,
    mulmod,
    unstack,
)
from .rng import XofRng
from .sampling import (
    PerturbationCov,
    gadget_vector,
    sample_g_batch,
    sample_z_batch,
)

_TRAPGEN_RETRIES = 64


@dataclass
class RingTrapdoor:
    """Secret ``T`` (base_len x k ring elements)."""

    t_arr: np.ndarray          # (base_len, k, n) canonical int64
    ctx: RingContext
    _cov: PerturbationCov | None = field(default=None, repr=False)
    _t_hat: np.ndarray | None = field(default=None, repr=False)

    @property
    def base_len(self) -> int:
        return self.t_arr.shape[0]

    @property
    def k(self) -> int:
        return self.t_arr.shape[1]

    def norm(self) -> float:
        """Largest column norm of ``T`` in the coefficient embedding."""
        bal = self.ctx.balanced(self.t_arr).astype(np.float64)
        return float(np.sqrt((bal**2).sum(axis=(0, 2)).max()))

    @property
    def t_hat(self) -> np.ndarray:
        """Cached NTT form of ``T``, shape (base_len, k, n)."""
        if self._t_hat is None:
            base_len, k, n = self.t_arr.shape
            flat = self.ctx.ntt(self.t_arr.reshape(base_len * k, n))
            self._t_hat = flat.reshape(base_len, k, n)
        return self._t_hat

    def perturbation(self, params: ParamsRing) -> PerturbationCov:
        """Cached perturbation covariance for this trapdoor."""
        if self._cov is None:
            self._cov = PerturbationCov(
                params.zeta,
                params.alpha_g,
                self.t_arr,
                self.ctx,
                round_width=params.sigma_trap,
            )
        return self._cov


@dataclass
class TaggedVector:
    """Public vector ``a`` with its current tag; see module docstring."""

    vec: np.ndarray            # (m, n) canonical int64
    tag: RingElement
    ctx: RingContext


def trap_gen(params: ParamsRing, rng: XofRng) -> tuple[TaggedVector, RingTrapdoor]:
    """Sample a zero-tagged vector together with its trapdoor.

    The head ``a'`` (base_len x n) is uniform and the gadget tail is
    computed as ``-a'^T T``, which makes the trapdoor identity hold exactly
    by construction; :func:`apply_tag_shift` then moves the tag.
    """
    ctx = get_context(params)
    base_len, k, n, q = params.base_len, params.k, params.n, params.q
    a_prime = rng.uniform_mod(q, base_len * n).reshape(base_len, n)
    a_hat = ctx.ntt(a_prime)                       # (base_len, n)
    norm_cap = params.t_tail * params.sigma_trap * math.sqrt(base_len * n)
    for _ in range(_TRAPGEN_RETRIES):
        t_arr = sample_z_batch(params.sigma_trap, np.zeros((base_len, k, n)), rng) % q
        trap = RingTrapdoor(t_arr=t_arr, ctx=ctx)
        # Output contract: the trapdoor must be short enough that the
        # preimage covariance zeta^2 I - alpha^2 [T;I][T;I]* stays positive
        # definite; the width derivation leaves only a small margin over the
        # expected singular norm, so oversized draws are rejected here rather
        # than surfacing as a decryption failure later.
        if trap.norm() > norm_cap:
            continue
        try:
            trap.perturbation(params)
        except CovarianceNotPD:
            continue
        at_hat = mulmod(a_hat[:, None, :], trap.t_hat, q).sum(axis=0) % q   # (k, n)
        tail = ctx.intt(-at_hat % q)
        vec = np.concatenate([a_prime, tail], axis=0)
        zero = RingElement(np.zeros(n, dtype=np.int64), ctx)
        return TaggedVector(vec=vec, tag=zero, ctx=ctx), trap
    raise GenerationFailed(
        f"no usable trapdoor in {_TRAPGEN_RETRIES} draws; widths too tight"
    )


def apply_tag_shift(av: TaggedVector, shift: RingElement) -> TaggedVector:
    """Return the vector with ``shift * g`` added to the gadget tail.

    The same trapdoor matrix now witnesses the shifted tag.
    """
    if shift.ctx != av.ctx:
        raise ParamsMismatch("shift built under a different context")
    ctx = av.ctx
    k = ctx.q.bit_length()
    vec = av.vec.copy()
    shift_hat = ctx.ntt(shift.coeffs)
    hg = ctx.intt(
        mulmod(np.broadcast_to(shift_hat, (k, ctx.n)), gadget_vector(k)[:, None] % ctx.q, ctx.q)
    )
    vec[-k:] = (vec[-k:] + hg) % ctx.q
    return TaggedVector(vec=vec, tag=av.tag + shift, ctx=ctx)


def trapdoor_identity_residual(av: TaggedVector, trap: RingTrapdoor) -> np.ndarray:
    """Exact residual of ``a^T [T; I] - tag * g^T``; zero when consistent."""
    ctx = av.ctx
    q = ctx.q
    base_len, k = trap.base_len, trap.k
    a_hat = ctx.ntt(av.vec)
    head = mulmod(a_hat[:base_len, None, :], trap.t_hat, q).sum(axis=0) % q
    full = (head + a_hat[base_len:]) % q
    tag_hat = ctx.ntt(av.tag.coeffs)
    hg = mulmod(np.broadcast_to(tag_hat, (k, ctx.n)), gadget_vector(k)[:, None] % q, q)
    return ctx.intt((full - hg) % q)


def sample_pre(
    trap: RingTrapdoor,
    av: TaggedVector,
    u: RingElement,
    params: ParamsRing,
    rng: XofRng,
) -> list[RingElement]:
    """Gaussian preimage: x with ``a^T x = u`` and per-coordinate width zeta.

    Steps: draw the structured perturbation p, reduce the target through
    the invertible tag, solve the remaining syndrome in the gadget coset,
    and fold the solution back through ``[T; I]``.
    """
    ctx = trap.ctx
    if av.ctx != ctx or u.ctx != ctx:
        raise ParamsMismatch("preimage request mixes ring contexts")
    q, n = ctx.q, ctx.n
    base_len, k = trap.base_len, trap.k
    if av.vec.shape[0] != base_len + k:
        raise InvalidParams("vector length does not match trapdoor shape")

    tag_hat = ctx.ntt(av.tag.coeffs)
    if (tag_hat == 0).any():
        raise TagNotInvertible("vector tag has a zero evaluation slot")
    tag_inv_hat = invmod(tag_hat, q)

    cov = trap.perturbation(params)
    p = cov.sample(rng) % q                                   # (m, n)

    a_hat = ctx.ntt(av.vec)
    ap_hat = dot_ntt(a_hat, ctx.ntt(p), ctx)
    v_hat = mulmod(tag_inv_hat, (ctx.ntt(u.coeffs) - ap_hat) % q, q)
    v = ctx.intt(v_hat)

    z = sample_g_batch(params.alpha_g, v, q, rng).T             # (k, n) small ints

    z_hat = ctx.ntt(z % q)
    tz = ctx.intt(mulmod(trap.t_hat, z_hat[None, :, :], q).sum(axis=1) % q)  # (base_len, n)

    x = np.empty((base_len + k, n), dtype=np.int64)
    x[:base_len] = (p[:base_len] + tz) % q
    x[base_len:] = (p[base_len:] + z) % q
    return unstack(x, ctx)


def apply_vector(av: TaggedVector, x_elems: list[RingElement]) -> RingElement:
    """Inner product ``a^T x`` of the vector with a preimage."""
    ctx = av.ctx
    x = np.stack([e.coeffs for e in x_elems])
    out = dot_ntt(ctx.ntt(av.vec), ctx.ntt(x), ctx)
    return RingElement(ctx.intt(out), ctx)
