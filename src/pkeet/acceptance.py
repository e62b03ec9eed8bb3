"""Acceptance criteria as runnable checks.

Each criterion function returns a :class:`CriterionResult`; `run_all` drives
them in order and is what the CLI self-test prints.  The checks are
deterministic: every criterion derives its randomness from a fixed label.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import matlattice as ml
from . import ots
from . import pkeet_int as pi
from . import pkeet_ring as pr
from . import serial
from .errors import RejectHash, RejectNoise, RejectSignature
from .hashing import (
    hash_message,
    hash_pm_one,
    hash_to_invertible,
    hash_to_sparse,
    hash_weighted,
)
from .params import derive_int_params, derive_ring_params
from .ring import (
    RingContext,
    RingElement,
    balanced,
    decode_bits,
    get_context,
    invert,
    is_invertible,
    mul_schoolbook,
)
from .rng import XofRng
from .sampling import (
    gadget_vector,
    sample_g_batch,
    sample_z_batch,
)
from .trapdoor_ring import (
    apply_tag_shift,
    apply_vector,
    sample_pre,
    trap_gen,
    trapdoor_identity_residual,
)

# Pinned outputs of the deterministic building blocks.  Any change to the
# stream cipher framing, the hash domains, or the parameter derivation is a
# compatibility break and must show up here.
FROZEN = {
    "rng_u64": [10244237757623200097, 16361389126561040402, 2323893745211243559, 8149014298465925536],
    "rng_uniform_mod": [323805, 259080, 624631, 221436, 942613, 692862, 165091, 689490],
    "gauss_width4": [-1, 1, 1, 1, -1, 0, 0, 0],
    "ring_toy_q": 127887583264769,
    "ring_strict_q": 127887583264769,
    "ring_toy_b_ots": 1,
    "ring_strict_b_ots": 16869636,
    "int_toy_q": 631848601,
    "int_strict_q": 15398037131,
    "ring_toy_digest": "89d5ae71b162f2a8",
    "ring_strict_digest": "b011a599bf43cc66",
    "int_toy_digest": "152f2587037d691f",
    "int_strict_digest": "0be47d42adbb28b6",
    "hash_message_digest": "0dc2c294bff32983",
    "hash_invertible_digest": "c7b64b37627896de",
    "hash_sparse_digest": "1a331ca083285e2f",
    "hash_pm_one_digest": "06de17c01275890d",
    "hash_weighted_digest": "d0355870a6783d2c",
}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _rng(label: str) -> XofRng:
    return XofRng(hashlib.shake_256(b"pkeet-acceptance:" + label.encode()).digest(32))


def _digest(arr: np.ndarray) -> str:
    return hashlib.shake_256(
        np.ascontiguousarray(arr, dtype=np.int64).astype("<i8").tobytes()
    ).hexdigest(8)


def _random_message(ctx: RingContext, rng: XofRng) -> RingElement:
    return RingElement(rng.uniform_mod(2, ctx.n), ctx)


# ---------------------------------------------------------------------------
# Criterion 1: ring round-trip
# ---------------------------------------------------------------------------


def criterion_1(profile: str = "toy") -> CriterionResult:
    start = time.perf_counter()
    params = derive_ring_params(128, 256, profile)
    rng = _rng("ring-roundtrip")
    ctx = get_context(params)
    pk, sk = pr.setup(params, rng)
    failures = 0
    for _ in range(200):
        msg = _random_message(ctx, rng)
        ct = pr.encrypt(pk, msg, params, rng)
        try:
            out = pr.decrypt(pk, sk, ct, params, rng)
        except (RejectSignature, RejectHash):
            failures += 1
            continue
        failures += int(out != msg)
    seconds = time.perf_counter() - start
    ok = failures == 0 and seconds <= 60.0
    return CriterionResult(
        1, "ring round-trip", ok,
        f"{200 - failures}/200 messages recovered, budget 60s", seconds,
    )


# ---------------------------------------------------------------------------
# Criterion 2: equality-test truth table
# ---------------------------------------------------------------------------


def criterion_2(profile: str = "toy") -> CriterionResult:
    start = time.perf_counter()
    params = derive_ring_params(128, 256, profile)
    rng = _rng("ring-equality")
    ctx = get_context(params)
    pk1, sk1 = pr.setup(params, rng)
    pk2, sk2 = pr.setup(params, rng)
    td1 = pr.trapdoor(sk1, pk1)
    td2 = pr.trapdoor(sk2, pk2)

    wrong_equal = 0
    for _ in range(100):
        msg = _random_message(ctx, rng)
        ct_i = pr.encrypt(pk1, msg, params, rng)
        ct_j = pr.encrypt(pk2, msg, params, rng)
        wrong_equal += int(pr.test(td1, td2, ct_i, ct_j, params, rng) != 1)
    wrong_diff = 0
    for _ in range(100):
        ct_i = pr.encrypt(pk1, _random_message(ctx, rng), params, rng)
        ct_j = pr.encrypt(pk2, _random_message(ctx, rng), params, rng)
        wrong_diff += int(pr.test(td1, td2, ct_i, ct_j, params, rng) != 0)
    seconds = time.perf_counter() - start
    ok = wrong_equal == 0 and wrong_diff == 0 and seconds <= 120.0
    return CriterionResult(
        2, "equality-test truth table", ok,
        f"equal pairs {100 - wrong_equal}/100, distinct pairs {100 - wrong_diff}/100, budget 120s",
        seconds,
    )


# ---------------------------------------------------------------------------
# Criterion 3: tamper rejection
# ---------------------------------------------------------------------------


def _tamper(ct, scheme: int, params, rng: XofRng):
    """Copy of ``ct`` with one word moved by a nonzero residue: the field
    uniformly from the scheme's CT layout, then a word of that field."""
    _, fields = serial._LAYOUTS[scheme, serial.KIND_CT]
    field = fields[int(rng.uniform_mod(len(fields), 1)[0])]
    arrays = [np.array(a) for a in field.take(getattr(ct, field.name))]
    word = int(rng.uniform_mod(sum(a.size for a in arrays), 1)[0])
    delta = 1 + int(rng.uniform_mod(params.q - 1, 1)[0])
    for arr in arrays:
        if word < arr.size:
            arr.flat[word] = (arr.flat[word] + delta) % params.q
            break
        word -= arr.size
    return replace(ct, **{field.name: field.build(arrays, params)})


def criterion_3(profile: str = "toy") -> CriterionResult:
    # A tampered column of the integer one-time key D that the signed digest
    # does not select leaves the signature valid but moves the selector, so
    # the vector slots' selector halves fail their noise check.
    start = time.perf_counter()
    params = derive_ring_params(128, 256, profile)
    iparams = derive_int_params(128, 32, profile)
    rng = _rng("tamper")
    ctx = get_context(params)
    pk, sk = pr.setup(params, rng)
    cts = [pr.encrypt(pk, _random_message(ctx, rng), params, rng) for _ in range(5)]
    ring_rejects = 0
    for i in range(100):
        bad = _tamper(cts[i % len(cts)], serial.SCHEME_RING, params, rng)
        try:
            pr.decrypt(pk, sk, bad, params, rng)
        except (RejectSignature, RejectHash):
            ring_rejects += 1

    ipk, isk = pi.setup_int(iparams, rng)
    icts = [
        pi.encrypt_int(ipk, rng.uniform_mod(2, iparams.t_msg), iparams, rng)
        for _ in range(5)
    ]
    int_rejects = 0
    for i in range(50):
        bad = _tamper(icts[i % len(icts)], serial.SCHEME_INT, iparams, rng)
        try:
            pi.decrypt_int(ipk, isk, bad, iparams, rng)
        except (RejectSignature, RejectHash, RejectNoise):
            int_rejects += 1
    seconds = time.perf_counter() - start
    ok = ring_rejects == 100 and int_rejects == 50
    return CriterionResult(
        3, "tamper rejection", ok,
        f"ring {ring_rejects}/100 rejected, integer {int_rejects}/50 rejected",
        seconds,
    )


# ---------------------------------------------------------------------------
# Criterion 4: exact algebraic gates
# ---------------------------------------------------------------------------


def criterion_4(profile: str = "toy") -> CriterionResult:
    start = time.perf_counter()
    params = derive_ring_params(128, 256, profile)
    iparams = derive_int_params(128, 32, profile)
    rng = _rng("exact-gates")
    ctx = get_context(params)

    trap_bad = 0
    for _ in range(50):
        av, trap = trap_gen(params, rng)
        shifted = apply_tag_shift(av, ctx.ntt(rng.uniform_mod(ctx.q, ctx.n)))
        trap_bad += int(trapdoor_identity_residual(av, trap).any())
        trap_bad += int(trapdoor_identity_residual(shifted, trap).any())

    av, trap = trap_gen(params, rng)
    h_hat = hash_to_invertible(params, b"exact-gate-tag")
    shifted = apply_tag_shift(av, h_hat)
    pre_bad = 0
    for _ in range(1000):
        u = rng.uniform_mod(ctx.q, ctx.n)
        x_hat = sample_pre([(trap, shifted, u)], params, rng)[0]
        pre_bad += int(not np.array_equal(apply_vector(shifted, x_hat), u))

    int_traps, int_trap_bad, slots = 10, 0, []
    for _ in range(int_traps):
        a_bar = ml.mat_uniform(iparams.q, iparams.n, iparams.m_bar, rng)
        a_mat, itrap = ml.trap_gen_int(a_bar, iparams, rng)
        int_trap_bad += int(ml.gadget_residual(a_mat, itrap.r, iparams.q).any())
        slots.append((a_mat, itrap))
    # Decrypt-shaped calls: two trapdoored slots under one shared M1.
    m1 = ml.mat_uniform(iparams.q, iparams.n, iparams.m, rng)
    f_mats = [np.concatenate([a_mat, m1], axis=1) for a_mat, _ in slots[-2:]]
    left_bad = 0
    for _ in range(20):
        u_mat = ml.mat_uniform(iparams.q, iparams.n, iparams.t_msg, rng)
        jobs = [(a_mat, m1, itrap, u_mat) for a_mat, itrap in slots[-2:]]
        e = ml.sample_left(jobs, iparams, rng)
        left_bad += int(any(
            ((ml.matmul_mod(f, e_j % iparams.q, iparams.q) - u_mat) % iparams.q).any()
            for f, e_j in zip(f_mats, e)
        ))

    ots_bad = 0
    a_prime = np.stack([rng.uniform_mod(ctx.q, ctx.n) for _ in range(params.base_len)])
    a_prime_hat = ctx.ntt(a_prime)
    for i in range(1000):
        keys = ots.ots_ring_keygen(a_prime_hat, params, rng)
        msg = hash_to_sparse(params, b"ots-ring-%d" % i)
        sig = ots.ots_ring_sign(keys, msg, params)
        ots_bad += int(not ots.ots_ring_verify(a_prime_hat, keys.pub, msg, sig, params))
    h_mat = ml.mat_uniform(iparams.q, iparams.n, iparams.m, rng)
    for i in range(1000):
        keys = ots.ots_sis_keygen(h_mat, iparams, rng)
        msg = hash_weighted(iparams, b"ots-sis-%d" % i)
        sig = ots.ots_sis_sign(keys, msg, iparams)
        ots_bad += int(not ots.ots_sis_verify(h_mat, keys.pub, msg, sig, iparams))

    seconds = time.perf_counter() - start
    ok = trap_bad == 0 and int_trap_bad == 0 and pre_bad == 0 and left_bad == 0 and ots_bad == 0
    return CriterionResult(
        4, "exact algebraic gates", ok,
        f"trapdoor identities {100 - trap_bad}/100, "
        f"integer identities {int_traps - int_trap_bad}/{int_traps}, "
        f"preimages {1000 - pre_bad}/1000, "
        f"left-samples {20 - left_bad}/20, signatures {2000 - ots_bad}/2000",
        seconds,
    )


# ---------------------------------------------------------------------------
# Criterion 5: oracle equivalence
# ---------------------------------------------------------------------------


def _poly_inverse_xgcd(coeffs: np.ndarray, n: int, q: int) -> np.ndarray | None:
    """Inverse modulo x^n + 1 over Z_q via polynomial extended Euclid."""

    def trim(p):
        while p and p[-1] % q == 0:
            p.pop()
        return p

    def divmod_poly(a, b):
        a = a[:]
        inv_lead = pow(b[-1], q - 2, q)
        quot = [0] * (len(a) - len(b) + 1)
        for shift in range(len(a) - len(b), -1, -1):
            factor = (a[len(b) - 1 + shift] * inv_lead) % q
            quot[shift] = factor
            for i, bc in enumerate(b):
                a[i + shift] = (a[i + shift] - factor * bc) % q
        return quot, trim(a)

    modulus = [1] + [0] * (n - 1) + [1]
    r0, r1 = modulus, trim([int(c) % q for c in coeffs])
    if not r1:
        return None
    s0, s1 = [0], [1]
    while r1:
        quot, rem = divmod_poly(r0, r1)
        r0, r1 = r1, rem
        prod = [0] * (len(quot) + len(s1) - 1)
        for i, qc in enumerate(quot):
            for j, sc in enumerate(s1):
                prod[i + j] = (prod[i + j] + qc * sc) % q
        new_s = [(a - b) % q for a, b in zip(s0 + [0] * len(prod), prod + [0] * len(s0))]
        s0, s1 = s1, trim(new_s)
    if len(r0) != 1:
        return None
    scale = pow(r0[0], q - 2, q)
    inv = [(c * scale) % q for c in s0]
    inv = inv[:n] + [0] * (n - len(inv))
    return np.array(inv[:n], dtype=np.int64)


def criterion_5(profile: str = "toy") -> CriterionResult:
    start = time.perf_counter()
    rng = _rng("oracles")
    params = derive_ring_params(128, 256, profile)
    mismatches = 0
    for n, q in ((4, 97), (256, params.q)):
        ctx = RingContext(n, q)
        for _ in range(1000):
            a = rng.uniform_mod(q, n)
            b = rng.uniform_mod(q, n)
            mismatches += int(not np.array_equal(ctx.mul_coeffs(a, b), mul_schoolbook(a, b, q)))

    ctx4 = RingContext(4, 97)
    codec_bad = 0
    for value in range(16):
        bits = np.array([(value >> i) & 1 for i in range(4)], dtype=np.int64)
        codec_bad += int(not np.array_equal(decode_bits((ctx4.q // 2) * bits, ctx4.q), bits))

    inv_bad = 0
    checked = 0
    while checked < 200:
        a = rng.uniform_mod(97, 4)
        oracle = _poly_inverse_xgcd(a, 4, 97)
        if not is_invertible(ctx4.ntt(a)):
            inv_bad += int(oracle is not None)
            continue
        checked += 1
        mine = invert(a, ctx4)
        inv_bad += int(oracle is None or not np.array_equal(mine, oracle))
        one = np.zeros(4, dtype=np.int64)
        one[0] = 1
        inv_bad += int(not np.array_equal(mul_schoolbook(a, mine, 97), one))

    seconds = time.perf_counter() - start
    ok = mismatches == 0 and codec_bad == 0 and inv_bad == 0
    return CriterionResult(
        5, "oracle equivalence", ok,
        f"products {2000 - mismatches}/2000, codec 16/16 exhaustive, "
        f"inversions {200 - inv_bad}/200 against extended-Euclid oracle",
        seconds,
    )


# ---------------------------------------------------------------------------
# Criterion 6: sampler statistics
# ---------------------------------------------------------------------------


def _exact_discrete_variance(width: float, cut: int = 64) -> float:
    ks = np.arange(-cut, cut + 1, dtype=np.float64)
    weights = np.exp(-math.pi * ks**2 / width**2)
    return float((ks**2 * weights).sum() / weights.sum())


def criterion_6(profile: str = "toy") -> CriterionResult:
    start = time.perf_counter()
    params = derive_ring_params(128, 256, profile)
    rng = _rng("sampler-stats")
    ctx = get_context(params)

    draws = sample_z_batch(4.0, 1_000_000, rng)
    exact = _exact_discrete_variance(4.0)
    base_dev = abs(float(draws.var()) / exact - 1.0)

    av, trap = trap_gen(params, rng)
    shifted = apply_tag_shift(av, ctx.ntt(rng.uniform_mod(ctx.q, ctx.n)))
    coords = []
    for _ in range(20):
        u = rng.uniform_mod(ctx.q, ctx.n)
        x_hat = sample_pre([(trap, shifted, u)], params, rng)[0]
        coords.append(balanced(ctx.intt(x_hat), ctx.q))
    target = params.zeta**2 / (2.0 * math.pi)
    pre_dev = abs(float(np.stack(coords).astype(np.float64).var()) / target - 1.0)

    q = params.q
    targets = rng.uniform_mod(q, 10_000)
    z = sample_g_batch(params.alpha_g, targets, q, rng)
    g = gadget_vector(params.k)
    residual = ((z * g[None, :]).sum(axis=1) - targets) % q
    gadget_bad = int(residual.any())

    seconds = time.perf_counter() - start
    ok = base_dev <= 0.03 and pre_dev <= 0.15 and gadget_bad == 0
    return CriterionResult(
        6, "sampler statistics", ok,
        f"base variance off by {100 * base_dev:.2f}% (cap 3%), preimage variance off by "
        f"{100 * pre_dev:.2f}% (cap 15%), gadget congruence {'exact' if not gadget_bad else 'BROKEN'}",
        seconds,
    )


# ---------------------------------------------------------------------------
# Criterion 7: integer-scheme round trip
# ---------------------------------------------------------------------------


def criterion_7(profile: str = "toy") -> CriterionResult:
    start = time.perf_counter()
    params = derive_int_params(128, 32, profile)
    rng = _rng("int-roundtrip")
    pk, sk = pi.setup_int(params, rng)
    failures = 0
    for _ in range(50):
        msg = rng.uniform_mod(2, params.t_msg)
        ct = pi.encrypt_int(pk, msg, params, rng)
        try:
            out = pi.decrypt_int(pk, sk, ct, params, rng)
        except (RejectSignature, RejectHash):
            failures += 1
            continue
        failures += int(not np.array_equal(out, msg))
    seconds = time.perf_counter() - start
    ok = failures == 0 and seconds <= 600.0
    return CriterionResult(
        7, "integer round-trip", ok,
        f"{50 - failures}/50 messages recovered, budget 600s", seconds,
    )


# ---------------------------------------------------------------------------
# Criterion 8: determinism and frozen vectors
# ---------------------------------------------------------------------------


def criterion_8(profile: str = "toy") -> CriterionResult:
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    from .cli import main as cli_main

    start = time.perf_counter()
    problems: list[str] = []

    def check(name: str, got, want) -> None:
        if isinstance(got, np.ndarray):
            got = got.tolist()
        if got != want:
            problems.append(f"{name}: {got!r} != {want!r}")

    check("rng_u64", XofRng(bytes(32)).u64(4).tolist(), FROZEN["rng_u64"])
    check(
        "rng_uniform_mod",
        XofRng(b"\x2a" * 32).uniform_mod(1_000_003, 8).tolist(),
        FROZEN["rng_uniform_mod"],
    )
    check(
        "gauss_width4",
        sample_z_batch(4.0, 8, XofRng(b"\x07" * 32)).tolist(),
        FROZEN["gauss_width4"],
    )

    ring_toy = derive_ring_params(128, 256, "toy")
    ring_strict = derive_ring_params(128, 256, "strict")
    int_toy = derive_int_params(128, 32, "toy")
    int_strict = derive_int_params(128, 32, "strict")
    check("ring_toy_q", ring_toy.q, FROZEN["ring_toy_q"])
    check("ring_strict_q", ring_strict.q, FROZEN["ring_strict_q"])
    check("ring_toy_b_ots", ring_toy.b_ots, FROZEN["ring_toy_b_ots"])
    check("ring_strict_b_ots", ring_strict.b_ots, FROZEN["ring_strict_b_ots"])
    check("int_toy_q", int_toy.q, FROZEN["int_toy_q"])
    check("int_strict_q", int_strict.q, FROZEN["int_strict_q"])
    check("ring_toy_digest", ring_toy.digest().hex(), FROZEN["ring_toy_digest"])
    check("ring_strict_digest", ring_strict.digest().hex(), FROZEN["ring_strict_digest"])
    check("int_toy_digest", int_toy.digest().hex(), FROZEN["int_toy_digest"])
    check("int_strict_digest", int_strict.digest().hex(), FROZEN["int_strict_digest"])

    probe = b"frozen-vector"
    check("hash_message_digest", _digest(hash_message(ring_toy, probe)), FROZEN["hash_message_digest"])
    h_coeffs = get_context(ring_toy).intt(hash_to_invertible(ring_toy, probe))
    check("hash_invertible_digest", _digest(h_coeffs), FROZEN["hash_invertible_digest"])
    check("hash_sparse_digest", _digest(hash_to_sparse(ring_toy, probe)), FROZEN["hash_sparse_digest"])
    check("hash_pm_one_digest", _digest(hash_pm_one(int_toy, probe)), FROZEN["hash_pm_one_digest"])
    check(
        "hash_weighted_digest",
        _digest(hash_weighted(int_toy, probe)),
        FROZEN["hash_weighted_digest"],
    )

    seed = "11" * 32
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        tmp_path = Path(tmp)
        for run in ("one", "two"):
            rc = cli_main(
                ["keygen", "--scheme", "ring", "--profile", "toy", "--seed", seed,
                 "--out-dir", str(tmp_path / run), "--name", "k"]
            )
            if rc != 0:
                problems.append(f"keygen run {run} exited {rc}")
        for suffix in ("k.pk", "k.sk"):
            one = (tmp_path / "one" / suffix).read_bytes()
            two = (tmp_path / "two" / suffix).read_bytes()
            if one != two:
                problems.append(f"{suffix} differs between identically seeded runs")
        msg_hex = "00" * 31 + "2a"
        for run in ("one", "two"):
            rc = cli_main(
                ["encrypt", "--pk", str(tmp_path / "one" / "k.pk"), "--message", msg_hex,
                 "--seed", seed, "--out", str(tmp_path / f"ct-{run}")]
            )
            if rc != 0:
                problems.append(f"encrypt run {run} exited {rc}")
        if (tmp_path / "ct-one").read_bytes() != (tmp_path / "ct-two").read_bytes():
            problems.append("ciphertexts differ between identically seeded runs")

    seconds = time.perf_counter() - start
    ok = not problems
    return CriterionResult(
        8, "determinism and frozen vectors", ok,
        "all frozen vectors and seeded files match" if ok else "; ".join(problems[:4]),
        seconds,
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
}


def run_all(profile: str = "toy", criteria: list[int] | None = None) -> list[CriterionResult]:
    wanted = criteria if criteria is not None else sorted(CRITERIA)
    results = []
    for number in wanted:
        fn = CRITERIA.get(number)
        if fn is None:
            raise ValueError(f"unknown criterion {number}")
        results.append(fn(profile))
    return results
