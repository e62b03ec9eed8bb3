"""Parameter derivation: structural invariants, inequalities, round-trips."""

import dataclasses
from fractions import Fraction
import math

from hypothesis import given, settings, strategies as st
import pytest

from pkeet import serial
from pkeet.errors import FramingError, InvalidParams, ParameterOverflow
from pkeet.ring import RingContext
from pkeet.params import (
    MULMOD_CAP,
    Q_CAP,
    ParamsRing,
    derive_int_params,
    derive_ring_params,
    is_prime,
    params_from_text,
    validate,
    validate_int,
    validate_ring,
)


def test_ring_modulus_structure(ring_toy):
    p = ring_toy
    assert is_prime(p.q)
    assert p.q % (2 * p.n) == 1
    assert p.k == p.q.bit_length()
    assert p.m == p.k + p.base_len
    assert p.base_len == 2
    assert p.q < MULMOD_CAP


def test_ring_validation_clean():
    for n in (64, 256):
        for profile in ("toy", "strict"):
            assert validate_ring(derive_ring_params(128, n, profile)) == []


def test_ring_validation_flags_multiply_cap():
    # A prime q = 1 (mod 2n) at or above the cap, which RingContext cannot run.
    base = derive_ring_params(128, 64, "toy")
    q = MULMOD_CAP + 1
    while not is_prime(q):
        q += 2 * base.n
    p = dataclasses.replace(base, q=q, k=q.bit_length(), m=q.bit_length() + 2)
    assert "q-mulmod-cap" in validate_ring(p)
    with pytest.raises(InvalidParams):
        RingContext(p.n, p.q)


# The ring modulus of every degree that derives: the same under the 2^56
# multiply cap as under the 2^57 cap before it.
RING_MODULI = {
    16: 400641032801,
    32: 1671602155649,
    64: 7050030948097,
    128: 29954998903553,
    256: 127887583264769,
    512: 547543115493377,
    1024: 2412720128278529,
    2048: 10339340924895233,
    4096: 44299501063200769,
}


def test_ring_derivation_stops_at_multiply_cap():
    for n, q in RING_MODULI.items():
        for profile in ("toy", "strict"):
            assert derive_ring_params(128, n, profile).q == q < MULMOD_CAP
    with pytest.raises(ParameterOverflow, match="2\\*\\*56"):
        derive_ring_params(128, 8192, "toy")


_RECORDS = (
    derive_ring_params(128, 64, "toy"),
    derive_ring_params(128, 64, "strict"),
    derive_int_params(128, 16, "toy"),
    derive_int_params(128, 16, "strict"),
)
_CRAFTED = [(0, "n", 0), (0, "n", 2**1100), (0, "zeta", math.inf), (2, "sigma", math.nan), (2, "t_tail", 0)]


def crafted_frame(record: int, name: str, value) -> bytes:
    """A parameter frame whose embedded text carries its own digest."""
    params = dataclasses.replace(_RECORDS[record], **{name: value})
    scheme = serial.SCHEME_RING if isinstance(params, ParamsRing) else serial.SCHEME_INT
    return serial.encode_frame(scheme, serial.KIND_PARAMS, params, b"")


@pytest.mark.parametrize("record,name,value", _CRAFTED)
def test_crafted_parameter_frames_rejected(record, name, value):
    with pytest.raises(FramingError):
        serial.decode_frame(crafted_frame(record, name, value))


_FIELD_VALUES = {
    int: st.one_of(st.sampled_from([0, -1, Q_CAP]), st.integers()),
    float: st.one_of(st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]), st.floats()),
}


def test_validate_strict_int_at_n_one():
    # ln(1) = 0 makes the alpha ceiling of the strict profile infinite.  The
    # second record keeps m = m_bar + n k consistent at n = 1.
    at_one = dataclasses.replace(_RECORDS[3], n=1)
    for params in (at_one, dataclasses.replace(at_one, m_bar=at_one.m - at_one.k)):
        bad = validate(params)
        assert isinstance(bad, list) and bad


def _oversized_strict_int():
    """A strict n=16 record, m = 100,000 wide, that meets every other
    strict relation: k = 43, m_bar = 99,312, and q, sigma and alpha moved
    to their Eq. 1 bounds at that width.  Its secret key would hold two
    99,312-row R matrices and need a 99,312^2 float64 factor each."""
    base, m = _RECORDS[3], 100_000
    ln_n = math.log(base.n)
    q = int(m**2.5 * math.sqrt(ln_n)) + 1
    while not is_prime(q):
        q += 1
    return dataclasses.replace(
        base, q=q, k=q.bit_length(), m=m, m_bar=m - base.n * q.bit_length(),
        sigma=float(math.ceil(m * base.l * math.sqrt(ln_n))), alpha=0.9 / (base.l**2 * m**2 * math.sqrt(ln_n)),
    )


def test_validate_flags_a_width_derivation_cannot_give():
    # Strict and toy records alike must have m = multiplier * n * k.
    params = _oversized_strict_int()
    assert (params.k, params.m_bar) == (43, 99_312)
    assert validate(params) == ["m-structure"]
    frame = serial.encode_frame(serial.SCHEME_INT, serial.KIND_PARAMS, params, b"")
    with pytest.raises(FramingError, match="m-structure"):
        serial.decode_frame(frame)


def test_unknown_profile_label_refused():
    # Neither scheme accepts a label outside PROFILES, and no parameter
    # frame carrying one decodes.
    for record in range(len(_RECORDS)):
        assert validate(dataclasses.replace(_RECORDS[record], profile="foo")) == ["profile-label"]
        with pytest.raises(FramingError, match="profile-label"):
            serial.decode_frame(crafted_frame(record, "profile", "foo"))


def test_derived_ring_records_validate_clean():
    for lambda_sec in (80, 128, 256):
        for profile in ("toy", "strict"):
            for n in (16, 64, 256, 1024):
                assert validate_ring(derive_ring_params(lambda_sec, n, profile)) == []


def test_derived_int_records_validate_clean():
    for lambda_sec in (80, 128, 256):
        for profile in ("toy", "strict"):
            for n in (16, 24, 32, 64, 128, 256):
                assert validate_int(derive_int_params(lambda_sec, n, profile)) == []


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_validate_is_total(data):
    record = data.draw(st.sampled_from(_RECORDS))
    names = [f.name for f in dataclasses.fields(record) if f.name != "profile"]
    name = data.draw(st.sampled_from(names))
    value = data.draw(_FIELD_VALUES[type(getattr(record, name))])
    bad = validate(dataclasses.replace(record, **{name: value}))
    assert isinstance(bad, list)
    if isinstance(value, float) and not math.isfinite(value) or isinstance(value, int) and value < 1:
        assert bad


def test_ring_correctness_inequality(ring_toy):
    p = ring_toy
    t = Fraction(p.t_tail)
    bound = (
        t * Fraction(p.tau) * Fraction(math.isqrt(p.n) + 1)
        + 2 * t * t * Fraction(p.tau) * Fraction(p.zeta) * p.n
        + t * t * Fraction(p.gamma) * Fraction(p.zeta) * p.k * p.n
    )
    assert bound < Fraction(p.q, 4)


def test_ring_preimage_width_floor(ring_toy):
    p = ring_toy
    floor = (
        math.sqrt(5.0)
        * p.sigma_trap**2
        / math.sqrt(2.0 * math.pi)
        * (math.sqrt(p.k * p.n) + math.sqrt(2 * p.n))
    )
    assert p.zeta > floor
    assert math.isclose(p.alpha_g, math.sqrt(5.0) * p.sigma_trap, rel_tol=1e-12)


def test_ring_profiles_differ_only_in_signature_bound():
    toy = derive_ring_params(128, 256, "toy")
    strict = derive_ring_params(128, 256, "strict")
    assert toy.q == strict.q
    assert toy.b_ots == 1
    assert strict.b_ots > 1 << 20
    assert 2 * strict.delta_w * strict.b_ots < strict.q // 2
    assert toy.digest() != strict.digest()


def test_ring_canonical_text_round_trip(ring_toy):
    text = ring_toy.canonical_text()
    again = params_from_text(text)
    assert again.canonical_text() == text
    assert again.digest() == ring_toy.digest()
    assert again.q == ring_toy.q and again.zeta == ring_toy.zeta


def test_ring_rejects_bad_degree():
    with pytest.raises(InvalidParams):
        derive_ring_params(128, 48, "toy")
    with pytest.raises(InvalidParams):
        derive_ring_params(128, 2, "toy")


def test_ring_rejects_unknown_profile():
    with pytest.raises(InvalidParams):
        derive_ring_params(128, 256, "medium")


def test_int_structure(int_toy):
    p = int_toy
    assert is_prime(p.q)
    assert p.k == p.q.bit_length()
    assert p.m == p.m_bar + p.n * p.k
    assert p.m_bar >= p.n * p.k
    assert validate_int(p) == []
    assert p.t_msg >= 1 and p.k_sig >= p.w_sig >= 1


def test_int_error_budget(int_toy):
    p = int_toy
    # Accumulated decryption error must sit far inside the decode window.
    noise_sd = p.alpha * p.q / math.sqrt(2.0 * math.pi)
    e_norm = p.sigma * math.sqrt(2 * p.m) / math.sqrt(2.0 * math.pi)
    avg_noise = noise_sd * math.sqrt((1 + p.l * p.m) / 2.0)
    sd = math.hypot(e_norm * avg_noise, noise_sd)
    assert 8 * sd < p.q / 4


def test_int_canonical_text_round_trip(int_toy):
    text = int_toy.canonical_text()
    again = params_from_text(text)
    assert again.canonical_text() == text
    assert again.digest() == int_toy.digest()


def test_int_strict_profile_larger():
    toy = derive_int_params(128, 32, "toy")
    strict = derive_int_params(128, 32, "strict")
    assert strict.q > toy.q
    assert strict.m > toy.m
    assert validate_int(strict) == []


def test_derivations_are_deterministic():
    a = derive_ring_params(128, 256, "toy")
    b = derive_ring_params(128, 256, "toy")
    assert a.canonical_text() == b.canonical_text()
    c = derive_int_params(128, 32, "toy")
    d = derive_int_params(128, 32, "toy")
    assert c.canonical_text() == d.canonical_text()
