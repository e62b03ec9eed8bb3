"""Parameter records, derivation, and validation for both schemes.

Profiles
--------
``strict``
    Every published operating condition is enforced.  Dimensions at this
    profile are chosen for the stated security label, not for speed.
``toy``
    Dimensions shrink for fast test runs.  Toy parameter records carry the
    label ``toy`` in their canonical text and give no real security; they
    still satisfy every functional identity (decode correctness, gadget
    shape, width floors), so the algorithms behave identically to strict
    mode.

Derivation is deterministic: a given ``(lambda_sec, n, profile)`` triple
always produces the same record, byte for byte under canonical
serialization.  It is also the only statement of the parameter rules.
:func:`validate` re-derives a record from its own triple and names every
field that differs, or returns the derivation's error text when the triple
derives nothing: a profile outside ``PROFILES``, a security label outside
``[1, LAMBDA_MAX]``, a dimension outside ``[16, 2**62)``, or one with no
admissible modulus below ``MULMOD_CAP`` (``2**52``), the one modulus bound
that every exact kernel and the frame packer rely on.  Both derivations
cache their last 32 records, so the validation that every frame decode runs
costs one lookup.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import InvalidDegree, InvalidParams, ParameterOverflow

PROFILES = ("strict", "toy")
LAMBDA_MAX = 256       # largest security label a derivation accepts

# Derivation constants shared by both schemes.
EPS_LOG2 = 80          # smoothing slack 2**-80 in the width floor
T_PRIME = 6            # slack term inside the perturbation width bound
T_TAIL = 12            # tail bound, in widths, assumed for every Gaussian draw
GAUSS_C = 1.0 / math.sqrt(2.0 * math.pi)
Q_CAP = 1 << 62        # every derivable dimension lies below this
MULMOD_CAP = 1 << 52   # every modulus lies below this; ring.mulmod is proven exact there
ZETA_HEADROOM = 1.01   # strict-inequality headroom above the width bound

# Integer-scheme knobs.
INT_Q_BOUND = 1 << 10          # floor for the integer-scheme modulus
INT_TOY_MULTIPLIER = 2         # toy rows-per-bit multiplier (strict uses 6)
INT_STRICT_MULTIPLIER = 6
INT_TOY_L = 16                 # +/-1 selector hash length, toy
INT_TOY_T_MSG = 32             # message bits, toy
INT_TOY_K_SIG = 64             # signature key columns, toy
INT_TOY_W_SIG = 16             # signature digest weight, toy
INT_TOY_NOISE_SD = 2.0         # target standard deviation of rounded noise
DECODE_MARGIN = 2.0            # extra factor between tail bound and q/4

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(value: int) -> bool:
    """Deterministic Miller-Rabin, exact for every value below 3.3e24."""
    if value < 2:
        return False
    for p in _MR_BASES:
        if value % p == 0:
            return value == p
    d = value - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, value)
        if x in (1, value - 1):
            continue
        for _ in range(r - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            return False
    return True


def _first_prime(start: int, step: int, k: int) -> int | None:
    """First prime ``>= start`` and ``= 1 (mod step)`` below ``2**k``, if any."""
    for cand in range(start + (1 - start) % step, 1 << k, step):
        if is_prime(cand):
            return cand
    return None


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


def _sqrt_upper(value: int) -> Fraction:
    """Exact rational upper bound on sqrt(value)."""
    root = math.isqrt(value)
    if root * root == value:
        return Fraction(root)
    return Fraction(math.nextafter(math.sqrt(value), math.inf))


def _check_label(lambda_sec: int, profile: str) -> None:
    """Refuse a profile or security label outside the derivable range,
    before any float arithmetic can overflow on it."""
    if profile not in PROFILES:
        raise InvalidParams(f"unknown profile {profile!r}")
    if not 1 <= lambda_sec <= LAMBDA_MAX:
        raise InvalidParams(f"security label must lie in [1, {LAMBDA_MAX}], got {lambda_sec}")


def _width_floor(n: int) -> float:
    """Smallest admissible Gaussian width: sqrt(ln(2n/eps)/pi)."""
    return math.sqrt((math.log(2 * n) + EPS_LOG2 * math.log(2)) / math.pi)


# ---------------------------------------------------------------------------
# Ring scheme parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamsRing:
    """Parameters of the ring (power-of-two cyclotomic) scheme.

    ``m`` counts ring elements in public vectors, split as ``base_len``
    uniform slots followed by ``k`` gadget slots, with ``k`` the bit length
    of ``q``.  Widths follow the convention ``rho_s(x) = exp(-pi x^2 / s^2)``,
    so a width ``s`` corresponds to standard deviation ``s / sqrt(2 pi)``.
    """

    lambda_sec: int
    profile: str
    n: int
    q: int
    k: int
    m: int
    base_len: int
    sigma_trap: float
    alpha_g: float
    zeta: float
    tau: float
    mu: float
    gamma: float
    t_tail: int
    delta_w: int
    b_ots: int

    def canonical_text(self) -> str:
        return _canonical_text("ring", self)

    def digest(self) -> bytes:
        return hashlib.shake_256(self.canonical_text().encode()).digest(8)


def _zeta_floor(sigma: float, k: int, n: int) -> float:
    return (
        math.sqrt(5.0)
        * GAUSS_C
        * sigma
        * sigma
        * (math.sqrt(k * n) + math.sqrt(2 * n) + T_PRIME)
    )


def _ring_error_budget(tau: float, zeta: float, gamma: float, k: int, n: int) -> Fraction:
    """Exact upper bound on the decode error budget.

    Terms: fresh noise, noise against the base block of the preimage, and
    the wide-noise block against the gadget block of the preimage.
    """
    t = T_TAIL
    tau_f = Fraction(tau)
    zeta_f = Fraction(zeta)
    gamma_f = Fraction(gamma)
    return (
        t * tau_f * _sqrt_upper(n)
        + 2 * t * t * tau_f * zeta_f * n
        + t * t * gamma_f * zeta_f * k * n
    )


@functools.lru_cache(maxsize=32, typed=True)
def derive_ring_params(lambda_sec: int, n: int, profile: str) -> ParamsRing:
    """Derive the full ring parameter record for a security label and degree.

    The modulus is the smallest prime ``q = 1 (mod 2n)`` whose quarter
    exceeds the exact decode error budget at the widths implied by ``n``.
    Raises :class:`ParameterOverflow` when no such prime lies below
    ``MULMOD_CAP``, the bound of the ring multiply kernel.
    """
    _check_label(lambda_sec, profile)
    if not isinstance(n, int) or not 16 <= n < Q_CAP or not _is_power_of_two(n):
        raise InvalidDegree(f"ring degree must be a power of two in [16, 2**62), got {n}")

    sigma = _width_floor(n)
    tau = sigma
    alpha = math.sqrt(5.0) * sigma
    log2n = n.bit_length() - 1
    gamma = 2.0 * T_TAIL * sigma * tau * math.sqrt(n)
    mu = T_TAIL * sigma * tau * math.sqrt(2 * n)
    delta_w = -(-n // log2n)

    chosen = None
    for k in range((2 * n + 1).bit_length(), MULMOD_CAP.bit_length()):
        zeta = ZETA_HEADROOM * _zeta_floor(sigma, k, n)
        budget = _ring_error_budget(tau, zeta, gamma, k, n)
        start = 4 * (int(budget) + 1)
        if start >= MULMOD_CAP:
            raise ParameterOverflow(
                f"ring modulus for n={n} would reach the 2**52 multiply cap"
            )
        q = _first_prime(max(start, (1 << (k - 1)) + 1), 2 * n, k)
        if q is not None:
            chosen = (k, q, zeta)
            break
    if chosen is None:
        raise ParameterOverflow(f"no admissible ring modulus below 2**52 for n={n}")
    k, q, zeta = chosen

    b_ots = 1
    if profile == "strict":
        # Key-coefficient bound sized to the message-space volume:
        # b = round(sqrt(|M|^(1/n) * 2^(lambda/n) * q)) for the length-2 key.
        log2_msgspace = math.log2(math.comb(n, delta_w)) + delta_w
        b_ots = max(1, round(math.sqrt(2.0 ** ((log2_msgspace + lambda_sec) / n) * q)))

    return ParamsRing(
        lambda_sec=lambda_sec,
        profile=profile,
        n=n,
        q=q,
        k=k,
        m=k + 2,
        base_len=2,
        sigma_trap=sigma,
        alpha_g=alpha,
        zeta=zeta,
        tau=tau,
        mu=mu,
        gamma=gamma,
        t_tail=T_TAIL,
        delta_w=delta_w,
        b_ots=b_ots,
    )


# ---------------------------------------------------------------------------
# Integer scheme parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamsInt:
    """Parameters of the integer-lattice scheme.

    ``m`` is the public matrix width, ``m = multiplier * n * k`` with
    ``k = ceil(log2 q)``; the trapdoor construction consumes ``n * k``
    gadget columns and leaves ``m_bar`` uniform columns.  ``alpha`` scales
    the rounded-Gaussian encryption noise; ``sigma`` is the preimage width.
    """

    lambda_sec: int
    profile: str
    n: int
    q: int
    k: int
    m: int
    m_bar: int
    l: int
    t_msg: int
    sigma: float
    alpha: float
    sigma_r: float
    delta_exp: float
    k_sig: int
    w_sig: int
    b_sig: int
    q_bound: int
    t_tail: int

    def canonical_text(self) -> str:
        return _canonical_text("int", self)

    def digest(self) -> bytes:
        return hashlib.shake_256(self.canonical_text().encode()).digest(8)


def _ln_slack(m: int) -> float:
    """The ``omega(sqrt(log m))`` slack of the integer scheme: sqrt(ln 4m)."""
    return math.sqrt(math.log(4 * m))


def int_gadget_width(m: int) -> float:
    """Width ``w`` of the integer scheme's gadget-coset sampler.

    The gadget basis has orthogonalized norms below sqrt(5), so ``w`` is
    sqrt(5) times the slack.  The preimage width ``sigma`` is this width
    scaled by the predicted largest singular value of ``[R; I]``, which
    leaves the perturbation covariance positive definite.
    """
    return math.sqrt(5.0) * _ln_slack(m)


def _int_gs_estimate(n: int, k: int, m_bar: int, sigma_r: float) -> float:
    """sqrt(5) times a bound on the largest singular value of ``[R; I]``,
    with ``s1(R)`` predicted from the width of ``R``; ``sigma`` is this
    times the slack, times 1.3."""
    s1 = sigma_r / math.sqrt(2.0 * math.pi) * (
        math.sqrt(m_bar) + math.sqrt(n * k) + T_PRIME
    )
    return math.sqrt(5.0) * (s1 + math.sqrt(2.0))


def _int_error_sd(sigma: float, m: int, l: int, noise_sd: float) -> float:
    """Standard deviation of one decode-error coordinate.

    The preimage column has squared norm about ``2m sigma^2 / (2 pi)`` and
    meets noise whose per-coordinate variance averages
    ``noise_sd^2 (1 + l m) / 2`` over the plain and mixed halves.
    """
    e_norm = sigma / math.sqrt(2.0 * math.pi) * math.sqrt(2.0 * m)
    avg_noise = noise_sd * math.sqrt((1.0 + l * m) / 2.0)
    return math.hypot(e_norm * avg_noise, noise_sd)


@functools.lru_cache(maxsize=32, typed=True)
def derive_int_params(lambda_sec: int, n: int, profile: str) -> ParamsInt:
    """Derive the integer-scheme parameter record.

    Strict mode follows the published relations with ``omega(sqrt(log n))``
    instantiated as ``2 sqrt(log2 n)``; toy mode shrinks the matrix width
    multiplier to 2 and sizes the modulus from the exact decode margin.
    Raises :class:`ParameterOverflow` when no admissible prime lies below
    ``MULMOD_CAP``, the bound of the exact ``matmul_mod`` kernel.
    """
    _check_label(lambda_sec, profile)
    if not isinstance(n, int) or not 16 <= n < Q_CAP:
        raise InvalidParams(f"integer-scheme dimension must lie in [16, 2**62), got {n}")

    log2n = math.log2(n)
    omega = 2.0 * math.sqrt(log2n)

    if profile == "toy":
        l = INT_TOY_L
        t_msg = INT_TOY_T_MSG
        k_sig = INT_TOY_K_SIG
        w_sig = INT_TOY_W_SIG
        noise_sd = INT_TOY_NOISE_SD
        mult = INT_TOY_MULTIPLIER
    else:
        l = 2 * lambda_sec
        t_msg = lambda_sec
        w_sig = max(-(-n // max(1, int(log2n))), -(-2 * lambda_sec // 3))
        k_sig = 4 * w_sig
        mult = INT_STRICT_MULTIPLIER

    chosen = None
    for k in range(8, MULMOD_CAP.bit_length()):
        m = mult * n * k
        m_bar = m - n * k
        sigma_r = _width_floor(m + n)
        gs_est = _int_gs_estimate(n, k, m_bar, sigma_r)
        sigma_op = gs_est * _ln_slack(m) * 1.3

        if profile == "toy":
            sigma = sigma_op
            sd = _int_error_sd(sigma, m, l, noise_sd)
            q_min = max(INT_Q_BOUND, math.ceil(DECODE_MARGIN * 4 * T_TAIL * sd))
        else:
            sigma = max(m * l * omega, sigma_op)
            q_min = max(INT_Q_BOUND, math.ceil(m**2.5 * omega))
        if q_min >= MULMOD_CAP:
            raise ParameterOverflow(
                f"integer modulus for n={n} would reach the 2**52 multiply cap"
            )
        q = _first_prime(max(q_min, (1 << (k - 1)) + 1), 2, k)
        if q is not None:
            chosen = (k, q, sigma, sigma_r)
            break
    if chosen is None:
        raise ParameterOverflow(f"no admissible integer modulus below 2**52 for n={n}")
    k, q, sigma, sigma_r = chosen
    m = mult * n * k
    m_bar = m - n * k

    if profile == "toy":
        alpha = INT_TOY_NOISE_SD * math.sqrt(2.0 * math.pi) / q
    else:
        alpha_eq = 1.0 / (l * l * m * m * omega)
        e_norm = sigma / math.sqrt(2.0 * math.pi) * math.sqrt(2.0 * m)
        avg = math.sqrt((1.0 + l * m) / 2.0)
        alpha_margin = math.sqrt(2.0 * math.pi) / (
            DECODE_MARGIN * 4 * T_TAIL * e_norm * avg
        )
        alpha = min(alpha_eq, alpha_margin)

    return ParamsInt(
        lambda_sec=lambda_sec,
        profile=profile,
        n=n,
        q=q,
        k=k,
        m=m,
        m_bar=m_bar,
        l=l,
        t_msg=t_msg,
        sigma=sigma,
        alpha=alpha,
        sigma_r=sigma_r,
        delta_exp=math.log(m / (6.0 * n)) / math.log(n),
        k_sig=k_sig,
        w_sig=w_sig,
        b_sig=1,
        q_bound=INT_Q_BOUND,
        t_tail=T_TAIL,
    )


def validate(params: ParamsRing | ParamsInt) -> list[str]:
    """Return the names of the fields in which ``params`` differs from the
    record its own ``(lambda_sec, n, profile)`` derives, or the derivation's
    error text when that triple derives nothing; empty when valid."""
    derive = {ParamsRing: derive_ring_params, ParamsInt: derive_int_params}.get(type(params))
    if derive is None:
        raise InvalidParams(f"not a parameter record: {type(params)!r}")
    try:
        derived = derive(params.lambda_sec, params.n, params.profile)
    except InvalidParams as exc:
        return [str(exc)]
    return [f.name for f in fields(params) if getattr(params, f.name) != getattr(derived, f.name)]


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _canonical_text(scheme: str, params) -> str:
    lines = [f"scheme={scheme}"]
    for f in sorted(fields(params), key=lambda f: f.name):
        value = getattr(params, f.name)
        lines.append(f"{f.name}={value!r}")
    return "\n".join(lines) + "\n"


def params_from_text(text: str) -> ParamsRing | ParamsInt:
    """Rebuild a parameter record from its canonical text form."""
    entries: dict[str, str] = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        if not _:
            raise InvalidParams(f"malformed parameter line: {line!r}")
        entries[key] = value
    scheme = entries.pop("scheme", None)
    cls = {"ring": ParamsRing, "int": ParamsInt}.get(scheme)
    if cls is None:
        raise InvalidParams(f"unknown scheme tag {scheme!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in entries:
            raise InvalidParams(f"missing parameter field {f.name!r}")
        raw = entries.pop(f.name)
        if f.type in ("int", int):
            kwargs[f.name] = int(raw)
        elif f.type in ("float", float):
            kwargs[f.name] = float(raw)
        else:
            if not (raw.startswith("'") and raw.endswith("'")):
                raise InvalidParams(f"malformed string field {f.name!r}")
            kwargs[f.name] = raw[1:-1]
    if entries:
        raise InvalidParams(f"unknown parameter fields: {sorted(entries)}")
    return cls(**kwargs)
