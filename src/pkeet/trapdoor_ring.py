"""Tagged gadget trapdoors for ring vectors and Gaussian preimage sampling.

A trapdoor for the vector ``a`` is a small matrix ``T`` with
``a^T [T; I] = tag * g^T`` where ``g = (1, 2, ..., 2^(k-1))``.  Key
generation draws ``T`` Gaussian, keeps it signed as drawn, and completes
the vector so the identity holds exactly; shifting the vector by
``(0, h*g)`` shifts the tag by ``h`` without touching ``T``.  Preimage
sampling follows the perturb-then-correct pattern: a structured
perturbation hides ``T``, the remaining syndrome is solved in the gadget
coset, and the correction re-enters through ``[T; I]``.  The schemes open
their ciphertexts by trapdoor inversion instead (``pkeet_ring``), through
the cached NTT form of ``T``; :func:`sample_pre` serves the self-test's
algebraic gate and the tests.

Public vectors, tags and preimages live in NTT slots, where all of this is
slotwise; frames keep the coefficient form (of a token's ``b``, only the
head, from which :func:`zero_tag_completion` rebuilds the rest).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
from .ring import RingContext, dot_ntt, get_context, invmod, mulmod
from .rng import XofRng
from .sampling import (
    PerturbationCov,
    gadget_vector,
    sample_g_batch,
    sample_z_batch,
)

# At n=1024 as few as 1 draw of T in 20 is accepted: 64 draws would all
# fail about 4 % of the time, 256 draws about 2e-6 of the time.
_TRAPGEN_RETRIES = 256


@dataclass
class RingTrapdoor:
    """Secret ``T`` (base_len x k ring elements); every opening reads its
    cached NTT form."""

    t_arr: np.ndarray          # (base_len, k, n) int64, signed as drawn
    ctx: RingContext
    _t_hat: np.ndarray | None = field(default=None, repr=False)

    @property
    def base_len(self) -> int:
        return self.t_arr.shape[0]

    @property
    def k(self) -> int:
        return self.t_arr.shape[1]

    def norm(self) -> float:
        """Largest column norm of ``T`` in the coefficient embedding."""
        t = self.t_arr.astype(np.float64)
        return float(np.sqrt((t**2).sum(axis=(0, 2)).max()))

    @property
    def t_hat(self) -> np.ndarray:
        """Cached NTT form of ``T`` mod q, shape (base_len, k, n)."""
        if self._t_hat is None:
            base_len, k, n = self.t_arr.shape
            flat = self.ctx.ntt(self.t_arr.reshape(base_len * k, n) % self.ctx.q)
            self._t_hat = flat.reshape(base_len, k, n)
        return self._t_hat

    def perturbation(self, params: ParamsRing) -> PerturbationCov:
        """This trapdoor's perturbation covariance, factored anew on each
        call; raises :class:`CovarianceNotPD` when ``zeta`` is too narrow."""
        return PerturbationCov(
            params.zeta, params.alpha_g, self.t_arr, self.ctx, round_width=params.sigma_trap
        )


@dataclass
class TaggedVector:
    """Public vector ``a`` with its current tag, both in NTT slots; see
    module docstring."""

    vec_hat: np.ndarray        # (m, n) NTT slots
    tag_hat: np.ndarray        # (n,) NTT slots
    ctx: RingContext
    _vec: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_coeffs(cls, vec: np.ndarray, ctx: RingContext) -> "TaggedVector":
        """Zero-tagged vector from its coefficient form, which stays cached."""
        zero = np.zeros(ctx.n, dtype=np.int64)
        return cls(vec_hat=ctx.ntt(vec), tag_hat=zero, ctx=ctx, _vec=vec)

    @property
    def vec(self) -> np.ndarray:
        """Cached coefficient form, shape (m, n) canonical int64."""
        if self._vec is None:
            self._vec = self.ctx.intt(self.vec_hat)
        return self._vec

    def vec_head(self, rows: int) -> np.ndarray:
        """The first ``rows`` rows of the coefficient form; when that form is
        not cached, only those rows are transformed."""
        if self._vec is None:
            return self.ctx.intt(self.vec_hat[:rows])
        return self._vec[:rows]


def zero_tag_completion(a_hat: np.ndarray, trap: RingTrapdoor) -> np.ndarray:
    """``[a'; -a'^T T]`` in NTT slots, shape (m, n), for the head ``a'``
    given in NTT slots, shape (base_len, n): the one vector with that head
    whose trapdoor identity holds for ``T`` at tag zero."""
    q = trap.ctx.q
    tail_hat = -mulmod(a_hat[:, None, :], trap.t_hat, q).sum(axis=0) % q   # (k, n)
    return np.concatenate([a_hat, tail_hat])


def trap_gen(params: ParamsRing, rng: XofRng) -> tuple[TaggedVector, RingTrapdoor]:
    """Sample a zero-tagged vector together with its trapdoor.

    The head ``a'`` (base_len x n) is uniform and the gadget tail is
    computed as ``-a'^T T`` (:func:`zero_tag_completion`), which makes the
    trapdoor identity hold exactly by construction; :func:`apply_tag_shift`
    then moves the tag.
    """
    ctx = get_context(params)
    base_len, k, n, q = params.base_len, params.k, params.n, params.q
    a_prime = rng.uniform_mod(q, base_len * n).reshape(base_len, n)
    a_hat = ctx.ntt(a_prime)                       # (base_len, n)
    norm_cap = params.t_tail * params.sigma_trap * math.sqrt(base_len * n)
    for _ in range(_TRAPGEN_RETRIES):
        t_arr = sample_z_batch(params.sigma_trap, (base_len, k, n), rng)
        trap = RingTrapdoor(t_arr=t_arr, ctx=ctx)
        # Output contract: the trapdoor must be short enough that the
        # preimage covariance zeta^2 I - alpha^2 [T;I][T;I]* stays positive
        # definite; the width derivation leaves only a small margin over the
        # expected singular norm, so oversized draws are rejected here rather
        # than surfacing as a CovarianceNotPD in sample_pre later.  The norm
        # cap also bounds the error that trapdoor inversion must decode.
        if trap.norm() > norm_cap:
            continue
        try:
            trap.perturbation(params)
        except CovarianceNotPD:
            continue
        vec_hat = zero_tag_completion(a_hat, trap)
        vec = np.concatenate([a_prime, ctx.intt(vec_hat[base_len:])])
        zero = np.zeros(n, dtype=np.int64)
        return TaggedVector(vec_hat, zero, ctx, _vec=vec), trap
    raise GenerationFailed(
        f"no usable trapdoor in {_TRAPGEN_RETRIES} draws; widths too tight"
    )


def apply_tag_shift(av: TaggedVector, shift_hat: np.ndarray) -> TaggedVector:
    """Return the vector with ``shift * g`` added to the gadget tail; the
    shift comes as NTT slots, shape (n,).

    The same trapdoor matrix now witnesses the shifted tag.
    """
    if np.shape(shift_hat) != (av.ctx.n,):
        raise ParamsMismatch("shift slots do not match the vector's ring degree")
    q = av.ctx.q
    k = q.bit_length()
    vec_hat = av.vec_hat.copy()
    vec_hat[-k:] = (vec_hat[-k:] + mulmod(shift_hat, gadget_vector(k)[:, None] % q, q)) % q
    return TaggedVector(vec_hat=vec_hat, tag_hat=(av.tag_hat + shift_hat) % q, ctx=av.ctx)


def trapdoor_identity_residual(av: TaggedVector, trap: RingTrapdoor) -> np.ndarray:
    """Exact residual of ``a^T [T; I] - tag * g^T``, which is ``a``'s tail
    less that of :func:`zero_tag_completion` and ``tag * g``; zero when
    consistent."""
    ctx = av.ctx
    q = ctx.q
    base_len = trap.base_len
    tail_hat = zero_tag_completion(av.vec_hat[:base_len], trap)[base_len:]
    hg_hat = mulmod(av.tag_hat, gadget_vector(trap.k)[:, None] % q, q)
    return ctx.intt((av.vec_hat[base_len:] - tail_hat - hg_hat) % q)


def sample_pre(
    jobs: Sequence[tuple[RingTrapdoor, TaggedVector, np.ndarray]],
    params: ParamsRing,
    rng: XofRng,
) -> np.ndarray:
    """Gaussian preimages: for each job ``(trapdoor, av, u)``, ``u`` canonical
    of shape (n,), an x with ``av^T x = u`` and per-coordinate width zeta.

    Steps: draw each job's structured perturbation p, from a covariance
    factored for this call (:meth:`RingTrapdoor.perturbation`), reduce
    the targets through the invertible tags (one inversion chain for all
    of them), solve the remaining syndromes in the gadget coset (one walk
    for all of them), and fold the solutions back through ``[T; I]``.  The
    preimages are returned in evaluation form,
    ``x_hat[j] = p_hat[j] + [T_hat[j] z_hat[j]; z_hat[j]]``, shape (J, m, n).
    """
    ctx = jobs[0][0].ctx
    q = ctx.q
    for trap, av, u in jobs:
        if trap.ctx != ctx or av.ctx != ctx or np.shape(u) != (ctx.n,):
            raise ParamsMismatch("preimage request mixes ring contexts")
        if av.vec_hat.shape[0] != trap.base_len + trap.k:
            raise InvalidParams("vector length does not match trapdoor shape")

    tag_hat = np.stack([av.tag_hat for _, av, _ in jobs])           # (J, n)
    if (tag_hat == 0).any():
        raise TagNotInvertible("vector tag has a zero evaluation slot")
    tag_inv_hat = invmod(tag_hat, q)

    p = np.stack([trap.perturbation(params).sample(rng) for trap, _, _ in jobs])
    targets = np.stack([u for _, _, u in jobs])[:, None, :]
    pu_hat = ctx.ntt(np.concatenate([p % q, targets], axis=1))       # (J, m + 1, n)
    p_hat, u_hat = pu_hat[:, :-1], pu_hat[:, -1]

    vec_hat = np.stack([av.vec_hat for _, av, _ in jobs])
    ap_hat = mulmod(vec_hat, p_hat, q).sum(axis=1) % q
    v = ctx.intt(mulmod(tag_inv_hat, (u_hat - ap_hat) % q, q))      # (J, n)

    z = sample_g_batch(params.alpha_g, v.reshape(-1), q, rng)       # (J n, k) small ints
    z_hat = ctx.ntt(np.swapaxes(z.reshape(*v.shape, -1), 1, 2) % q)  # (J, k, n)

    t_hat = np.stack([trap.t_hat for trap, _, _ in jobs])           # (J, base_len, k, n)
    tz_hat = mulmod(t_hat, z_hat[:, None], q).sum(axis=2) % q        # (J, base_len, n)
    return (p_hat + np.concatenate([tz_hat, z_hat], axis=1)) % q


def apply_vector(av: TaggedVector, x_hat: np.ndarray) -> np.ndarray:
    """Inner product ``a^T x`` of the vector with a preimage in evaluation form."""
    return av.ctx.intt(dot_ntt(av.vec_hat, x_hat, av.ctx))
