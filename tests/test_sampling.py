"""Gaussian samplers against exact enumeration oracles.

Every statistical assertion here compares an empirical distribution to a
probability vector computed by direct summation of exp(-pi x^2 / width^2)
over an exhaustive window, so a sampler bug shows up as a distribution
mismatch rather than a flaky moment test.
"""

import hashlib
import math

import numpy as np
import pytest

from pkeet.errors import CovarianceNotPD, WidthTooSmall
from pkeet.params import T_TAIL, derive_int_params, derive_ring_params, int_gadget_width
from pkeet.ring import RingContext
from pkeet.rng import XofRng
from pkeet.sampling import (
    PerturbationCov,
    _accept_lazy,
    _gadget_gs,
    _half_gaussian_cdf,
    _reject_round,
    _zero_centred_cdf,
    bit_decompose,
    gadget_basis,
    gadget_vector,
    sample_g_batch,
    sample_z_batch,
    sample_z_reject,
)
from conftest import (
    cdf_index_reference,
    cdt_batch_reference,
    gadget_walk_dense,
    gadget_walk_reference,
    seeded,
    stream_uniforms,
)


def gauss_weight(points: np.ndarray, width: float, center: float = 0.0) -> np.ndarray:
    return np.exp(-math.pi * (points - center) ** 2 / width**2)


def exact_variance(width: float, cut: int) -> float:
    ks = np.arange(-cut, cut + 1, dtype=np.float64)
    w = gauss_weight(ks, width)
    return float((ks**2 * w).sum() / w.sum())


def randomized_pit(draws, width, centers, rng):
    """``F(x - 1) + U p(x)`` under each center's exact pmf over the
    reference's 5.5-width window: uniform on [0, 1) when the draws are exact."""
    span = 5.5 * width
    lo = np.ceil(centers - span).astype(np.int64)
    window = int(math.floor(2.0 * span)) + 1
    cand = lo[:, None] + np.arange(window, dtype=np.int64)[None, :]
    weights = gauss_weight(cand.astype(np.float64), width, centers[:, None])
    cdf = np.cumsum(weights, axis=1) / weights.sum(axis=1, keepdims=True)
    idx = draws - lo
    assert ((idx >= 0) & (idx < window)).all()
    rows = np.arange(draws.size)
    below = np.where(idx > 0, cdf[rows, np.maximum(idx - 1, 0)], 0.0)
    return below + rng.uniform01(draws.size) * (cdf[rows, idx] - below)


def ks_uniform(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of ``values`` from Uniform[0, 1)."""
    v = np.sort(values)
    n = v.size
    return float(max((np.arange(1, n + 1) / n - v).max(), (v - np.arange(n) / n).max()))


# The reference keeps the formal tail cut.  At T_TAIL = 12 widths its mask
# never binds for a width of at least 1, which is why the kernels have none.
# ``spread`` scatters the centers over that many widths: far apart, a few
# windows wide, or well inside one window.  Zero and integer centers come
# from the shared CDF row, draw for draw: at an integer center c the
# reference window is the zero window moved by c.  Other centers go through
# sample_z_reject, which reads its own stream, so its draws are checked in
# distribution against the reference's per-center window.
@pytest.mark.parametrize("width", [1.0, 4.0, 4.43, 8.0, 31.9])
@pytest.mark.parametrize("spread", [12.0, 2.0, 0.3])
@pytest.mark.parametrize("kind", ["random", "integer", "zero"])
def test_cdt_kernel_matches_reference(width, spread, kind):
    centers = seeded(f"cdt-centers-{kind}").normal(3000) * (spread * width)
    label = f"cdt-{width}-{spread}-{kind}"
    if kind == "random":
        draws = sample_z_reject(width, centers, seeded(label))
        assert draws.dtype == np.int64
        pit = randomized_pit(draws, width, centers, seeded(f"{label}-pit"))
        # 1.95 / sqrt(n) is the KS critical value at alpha = 0.001.
        assert ks_uniform(pit) < 1.95 / math.sqrt(pit.size), label
        return
    centers = np.rint(centers) if kind == "integer" else np.zeros(3000)
    want = cdt_batch_reference(width, centers, seeded(label), float(T_TAIL))
    got = centers.astype(np.int64) + sample_z_batch(width, centers.size, seeded(label))
    assert got.dtype == np.int64
    assert np.array_equal(got, want), label


# 4.43 is the trapdoor and tau width at ring n=256; 3685.5 and 7540.4 are
# gamma, the encryption tail width, at ring n=64 and 256.
@pytest.mark.parametrize("width", [1.0, 4.0, 4.43, 8.0, 31.9, 64.0, 729.6, 3685.5, 7540.4])
def test_wide_zero_center_matches_reference(width):
    # The reference keeps the formal tail cut; at T_TAIL = 12 widths its
    # mask never binds for a width of at least 1, which is why the kernel
    # has none.  It holds one window row per draw, so wide widths run in
    # blocks of 20 draws; each block takes the next uniforms of the stream.
    blocks, block = (1, 3000) if width < 32.0 else (10, 20)
    label = f"wide-zero-{width}"
    rng = seeded(label)
    want = np.concatenate(
        [cdt_batch_reference(width, np.zeros(block), rng, float(T_TAIL)) for _ in range(blocks)]
    )
    got = sample_z_batch(width, blocks * block, seeded(label))
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("width", [3685.5, 7540.4])
def test_wide_zero_center_matches_exact_pmf(width):
    draws = sample_z_batch(width, 200_000, seeded(f"wide-zero-pmf-{width}"))
    stat, dof = chi_square_against_pmf(draws, width, 0.0)
    assert stat < chi_square_critical(dof), f"chi^2 {stat:.1f} on {dof} dof"


def test_wide_zero_center_stream_use():
    # One uniform per draw: the stream continues where uniform01 leaves it.
    count = 5000
    sampled, plain = seeded("wide-zero-stream"), seeded("wide-zero-stream")
    sample_z_batch(7540.4, count, sampled)
    plain.uniform01(count)
    assert np.array_equal(sampled.u64(4), plain.u64(4))


# Every width the package draws through the shared row.
@pytest.mark.parametrize(
    "fixture,field",
    [
        ("ring_small", "sigma_trap"),
        ("ring_toy", "sigma_trap"),
        ("int_small", "sigma_r"),
        ("int_toy", "sigma_r"),
        ("ring_toy", "tau"),
        ("ring_small", "gamma"),
        ("ring_toy", "gamma"),
    ],
)
def test_shared_row_stream_use(request, fixture, field):
    # One uniform per draw: the stream continues where uniform01 leaves it.
    width = getattr(request.getfixturevalue(fixture), field)
    shape = (5, 10, 100)
    sampled, plain = seeded("wide-zero-stream"), seeded("wide-zero-stream")
    draws = sample_z_batch(width, shape, sampled)
    assert draws.dtype == np.int64 and draws.shape == shape
    plain.uniform01(draws.size)
    assert np.array_equal(sampled.u64(4), plain.u64(4))


def test_width_floor_enforced():
    with pytest.raises(WidthTooSmall):
        sample_z_batch(0.5, 4, seeded("floor"))
    with pytest.raises(WidthTooSmall):
        sample_z_reject(0.99, np.zeros(4), seeded("floor"))


def chi_square_against_pmf(draws: np.ndarray, width: float, center: float) -> tuple[float, int]:
    """Pearson statistic of integer draws against the exact pmf of
    D_{Z, width, center}, over about 20 bins of similar probability, and
    its degrees of freedom."""
    lo = math.floor(center - 6.0 * width) - 1
    support = np.arange(lo, math.ceil(center + 6.0 * width) + 2)
    pmf = gauss_weight(support, width, center)
    pmf /= pmf.sum()
    # A point's bin is set by its mid cumulative mass: heavy points get bins
    # of their own, the light tails merge into their neighbours.
    label = np.floor((np.cumsum(pmf) - pmf / 2.0) * 20.0).astype(np.int64)
    bins, label = np.unique(label, return_inverse=True)
    expected = np.bincount(label, weights=pmf) * draws.size
    inside = (draws >= support[0]) & (draws <= support[-1])
    assert inside.all(), f"draws outside {support[0]}..{support[-1]}"
    observed = np.bincount(label[draws - lo], minlength=bins.size)
    return float(((observed - expected) ** 2 / expected).sum()), bins.size - 1


def chi_square_critical(dof: int, z: float = 4.5) -> float:
    """Wilson-Hilferty upper quantile of chi^2(dof) at a normal z-score."""
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3


REJECT_CENTERS = (0.0, 5.0, -7.38, 0.37)   # zero, integer, negative, fractional


@pytest.mark.parametrize("width", [1.0, 1.7, 3.2, 4.43, 8.0, 31.9, 729.6])
def test_rejection_sampler_matches_exact_pmf(width):
    # The four centers interleave in one call, so each output must land in
    # its own center's slot across the redraw rounds.
    per_center = 60_000
    centers = np.tile(REJECT_CENTERS, per_center)
    draws = sample_z_reject(width, centers.reshape(-1, 4), seeded(f"reject-{width}"))
    assert draws.shape == (per_center, 4) and draws.dtype == np.int64
    for j, c in enumerate(REJECT_CENTERS):
        stat, dof = chi_square_against_pmf(draws[:, j], width, c)
        assert stat < chi_square_critical(dof), f"center {c}: chi^2 {stat:.1f} on {dof} dof"


class _ByteRng(XofRng):
    """A stream that serves ``data`` and then zero bytes, and counts the
    bytes it has served."""

    def __init__(self, data: bytes):
        super().__init__(bytes(32))
        self.data, self.served = data, 0

    def bytes(self, count):
        out = self.data[self.served : self.served + count].ljust(count, b"\0")
        self.served += count
        return out


class _TopUniformRng(_ByteRng):
    """One rejection round of ``count`` candidates from ``row`` that read
    all-ones candidate bytes (the top bucket, sign bit 1) and, where that
    bucket is split, an all-ones completion word, so each takes the largest
    uniform the stream gives, ``1 - 2^-53``.  The acceptance bytes and any
    tie words are zero, so every candidate is accepted."""

    def __init__(self, row, count):
        nb = row.bits // 8 + 1
        data = (b"\xff" * nb + b"\0") * count
        if row.table[-1] < 0:
            data += b"\xff" * 8 * count
        super().__init__(data)


@pytest.mark.parametrize("width", [1.0, 1.7, 4.43, 31.9, 729.6])
def test_rejection_sampler_top_uniform_stays_in_window(width):
    # u * cdf[-1] <= cdf[-1] for every stream uniform u < 1, so the search
    # never runs past the 5.5-width row and the sampler needs no clamp.
    top = float(np.uint64(2**64 - 1) >> np.uint64(11)) * 2.0**-53
    assert top == 1.0 - 2.0**-53
    cdf = _half_gaussian_cdf(width).cdf
    z0_max = math.floor(5.5 * width)
    assert cdf.size == z0_max + 1 and top * cdf[-1] <= cdf[-1]
    draws = sample_z_reject(width, np.zeros(8), _TopUniformRng(_half_gaussian_cdf(width), 8))
    z0 = draws - 1                                  # z = b + (2b - 1) z0, b = 1
    assert ((0 <= z0) & (z0 <= z0_max)).all()
    assert (z0 == np.searchsorted(cdf, top * cdf[-1], side="left")).all()


def test_half_gaussian_row_cached_read_only():
    row = _half_gaussian_cdf(4.43)
    assert _half_gaussian_cdf(4.43) is row
    assert not row.cdf.flags.writeable
    ks = np.arange(math.floor(5.5 * 4.43) + 1, dtype=np.float64)
    assert np.array_equal(row.cdf, np.cumsum(np.exp(-math.pi * ks * ks / (4.43 * 4.43))))


def _walk_widths(width: float, q: int) -> list[float]:
    """The two row widths of a gadget walk at ``width`` modulo ``q``, as the
    walk computes them: the top level's, and the widest of the levels below,
    whose row they share."""
    _, gs_norms = _gadget_gs(gadget_basis(q, int(q).bit_length()))
    return [width / float(gs_norms[-1]), float((width / gs_norms[:-1]).max())]


def _drawn_rows(scheme: str, n: int, profile: str):
    """Every CDF row that the scheme draws from at degree ``n``: zero-centred
    rows of ``sample_z_batch`` and half rows of ``sample_z_reject`` and the
    gadget walk."""
    if scheme == "ring":
        p = derive_ring_params(128, n, profile)
        zero = {p.sigma_trap, p.tau, p.gamma}
        half = {p.sigma_trap, *_walk_widths(p.alpha_g, p.q)}
    else:
        p = derive_int_params(128, n, profile)
        zero = {p.sigma_r, p.sigma}
        half = {p.sigma_r, *_walk_widths(int_gadget_width(p.m), p.q)}
    rows = [(f"zero-{w}", _zero_centred_cdf(w)[1]) for w in sorted(zero)]
    return rows + [(f"half-{w}", _half_gaussian_cdf(w)) for w in sorted(half)]


ROW_CASES = [("ring", n, profile) for n in (64, 256, 1024) for profile in ("toy", "strict")] + [
    ("int", 16, "toy"),
    ("int", 32, "toy"),
]


@pytest.mark.parametrize("scheme,n,profile", ROW_CASES)
def test_bucket_table_matches_bisection(scheme, n, profile):
    # Random words, the first and last word of every bucket and their inner
    # neighbours (so every edge between two buckets, from both sides), and
    # the all-ones word, whose uniform 1 - 2^-53 is the largest.
    for label, row in _drawn_rows(scheme, n, profile):
        bits = row.table.size.bit_length() - 1
        first = np.arange(1 << bits, dtype=np.uint64) << np.uint64(64 - bits)
        last = first | np.uint64((1 << (64 - bits)) - 1)
        words = np.concatenate([
            seeded(f"bucket-{scheme}-{n}-{label}").u64(20_000),
            first, first + np.uint64(1), last - np.uint64(1), last,
            np.array([2**64 - 1], dtype=np.uint64),
        ])
        u = stream_uniforms(words)
        got = row.index(u)
        assert got.dtype == np.int64 and got.flags.writeable, label
        assert np.array_equal(got, cdf_index_reference(row.cdf, u)), label


@pytest.mark.parametrize("scheme,n,profile", ROW_CASES)
def test_lazy_index_matches_bisection(scheme, n, profile):
    # A rejection candidate reads only its bucket, the top g bits of its
    # uniform; a split bucket reads one more word for the bits below.  For
    # random words and the first and last word of every bucket, feeding the
    # bucket and then the word's lower bits must give the index that
    # bisection of the whole word's uniform gives.
    for label, row in _drawn_rows(scheme, n, profile):
        g = row.bits
        first = np.arange(1 << g, dtype=np.uint64) << np.uint64(64 - g)
        last = first | np.uint64((1 << (64 - g)) - 1)
        words = np.concatenate([seeded(f"lazy-{scheme}-{n}-{label}").u64(20_000), first, last])
        bucket = (words >> np.uint64(64 - g)).astype(np.int64)
        split = row.table[bucket] < 0
        rng = _ByteRng((words[split] << np.uint64(g)).astype("<u8").tobytes())
        got = row.complete(bucket, rng)
        assert got.dtype == np.int64 and got.flags.writeable, label
        assert rng.served == 8 * int(split.sum()), label
        assert np.array_equal(got, cdf_index_reference(row.cdf, stream_uniforms(words))), label


def test_lazy_acceptance_matches_uniform_comparison():
    # Comparing the top byte first and the other 45 bits only on a tie must
    # decide exactly as ``u < p`` for the whole 53-bit uniform: at random p,
    # p = 1, p below 2^-8 (every top byte but 0 rejects at once) and p on
    # the byte grid (a tie always rejects), with random words and with words
    # whose top byte is forced onto the tie.
    rng = seeded("lazy-accept")
    words = rng.u64(4000)
    cases = {
        "random": rng.uniform01(4000),
        "one": np.ones(4000),
        "tiny": rng.uniform01(4000) * 2.0**-8,
        "grid": rng.uniform_mod(256, 4000) / 256.0,
    }
    for label, p in cases.items():
        tie_byte = np.minimum(np.floor(p * 256.0), 255.0).astype(np.uint64)
        forced = (words & np.uint64(2**56 - 1)) | (tie_byte << np.uint64(56))
        for kind, w in (("stream", words), ("tie", forced)):
            top = (w >> np.uint64(56)).astype(np.uint8)
            tie = top == np.floor(p * 256.0)
            assert tie.all() or kind == "stream" or label == "one"
            stub = _ByteRng((w[tie] << np.uint64(8)).astype("<u8").tobytes())
            got = _accept_lazy(p, top, stub)
            assert stub.served == 8 * int(tie.sum()), (label, kind)
            assert np.array_equal(got, stream_uniforms(w) < p), (label, kind)


def test_narrower_widths_from_one_row_match_exact_pmf():
    # The gadget walk draws every level below its top from one row at the
    # widest level width (4.954 at ring n=256) and accepts each candidate at
    # its own level's width (4.431 at level 0).  Widths and centers
    # interleave in one round sequence, so each draw must land in its slot.
    s0, widths, per_slot = 4.954, (4.431, 1.0, 4.954), 40_000
    width = np.repeat(widths, len(REJECT_CENTERS))
    centers = np.tile(REJECT_CENTERS, len(widths))
    coef_t = np.tile(-math.pi / (width * width), per_slot)
    coef_z = coef_t + math.pi / (s0 * s0)
    centers = np.tile(centers, per_slot)
    floor = np.floor(centers)
    frac = centers - floor
    out = floor.astype(np.int64)
    pending = np.arange(centers.size)
    row, rng = _half_gaussian_cdf(s0), seeded("narrow-widths")
    while pending.size:
        z, accept = _reject_round(row, frac[pending], coef_t[pending], coef_z[pending], rng)
        out[pending[accept]] += z[accept]
        pending = pending[~accept]
    draws = out.reshape(per_slot, width.size)
    for j, (w, c) in enumerate(zip(width, np.tile(REJECT_CENTERS, len(widths)))):
        stat, dof = chi_square_against_pmf(draws[:, j], w, c)
        assert stat < chi_square_critical(dof), f"width {w}, center {c}: chi^2 {stat:.1f} on {dof} dof"


@pytest.mark.parametrize("width", [1.0, 4.43, 31.9, 729.6, 7540.4])
def test_bucket_tables_cached_read_only(width):
    lo, zero = _zero_centred_cdf(width)
    assert _zero_centred_cdf(width)[1] is zero and _half_gaussian_cdf(width) is _half_gaussian_cdf(width)
    assert lo == math.ceil(-5.5 * width)
    for row in (zero, _half_gaussian_cdf(width)):
        assert not row.cdf.flags.writeable and not row.table.flags.writeable
        bits = min(16, row.cdf.size.bit_length() + 6)
        assert row.table.size == 1 << bits and row.table.dtype == np.int64
        # Each row entry splits at most one bucket, so searched words are
        # at most len(row) / 2^bits of all, under 1/64 below 1,024 entries.
        assert (row.table < 0).sum() <= row.cdf.size
        assert row.table.min() >= -1 and row.table.max() < row.cdf.size


def test_integer_sampler_matches_exact_pmf():
    width, count = 3.0, 200_000
    rng = seeded("pmf")
    draws = sample_z_batch(width, count, rng)
    cut = 36
    support = np.arange(-cut, cut + 1)
    exact = gauss_weight(support, width)
    exact /= exact.sum()
    observed = np.bincount(draws + cut, minlength=2 * cut + 1) / count
    tv = 0.5 * float(np.abs(observed - exact).sum())
    assert tv < 0.01, f"total-variation distance {tv:.4f}"


def test_integer_sampler_center_shift():
    # Nonzero centers go through the rejection sampler.
    rng = seeded("center")
    draws = sample_z_reject(4.0, np.full(100_000, 0.5), rng)
    assert abs(float(draws.mean()) - 0.5) < 0.02


def test_wide_sampler_variance():
    width = 64.0
    rng = seeded("wide")
    draws = sample_z_batch(width, 300_000, rng)
    target = exact_variance(width, 900)
    assert abs(float(draws.var()) / target - 1.0) < 0.03


def test_tail_cut_respected():
    width = 4.0
    rng = seeded("tail")
    draws = sample_z_batch(width, 100_000, rng)
    assert int(np.abs(draws).max()) <= math.ceil(12 * width)


def test_gram_schmidt_norms_match_manual_oracle(ring_toy, int_toy):
    for q in (ring_toy.q, int_toy.q):
        basis = gadget_basis(q, q.bit_length())
        _, gs_norms = _gadget_gs(basis)
        cols = basis.astype(np.float64).T.copy()
        norms = []
        done: list[np.ndarray] = []
        for c in cols:
            v = c.copy()
            for d in done:
                v -= (c @ d) / (d @ d) * d
            done.append(v)
            norms.append(math.sqrt(v @ v))
        assert np.allclose(gs_norms, norms, rtol=1e-9)
        # Every level width is the sampler width over one of these norms.
        assert float(gs_norms.max()) <= math.sqrt(5.0) + 1e-12
        assert float(gs_norms.min()) >= 1e-9


def test_gadget_sampler_golden_digests(ring_toy, int_small):
    # Pins the walk's float arithmetic: any reordering changes the draws.
    for q, width, want in (
        (ring_toy.q, ring_toy.alpha_g, "91effce6b5ba4c9c"),
        (int_small.q, int_gadget_width(int_small.m), "9351af51856b3c58"),
    ):
        rng = XofRng(bytes([5]) * 32)
        draws = sample_g_batch(width, rng.uniform_mod(q, 64), q, rng)
        assert hashlib.sha256(draws.astype("<i8").tobytes()).hexdigest()[:16] == want


@pytest.mark.parametrize("modulus", ["ring_toy", "int_small", "5", "12289", "2", "3"])
def test_gadget_walk_matches_dense_reference(ring_toy, int_small, modulus):
    # The walk pipelines its targets and centers them from one product; it
    # must draw exactly what the per-target walk, with a full residual and
    # one matvec per center, draws, and leave the stream where that walk
    # leaves it.  Moduli 2 and 3 have a single level below the top.
    q, width = {
        "ring_toy": (ring_toy.q, ring_toy.alpha_g),
        "int_small": (int_small.q, int_gadget_width(int_small.m)),
        "5": (5, 4.0),
        "12289": (12289, ring_toy.alpha_g),
        "2": (2, 4.0),
        "3": (3, 4.0),
    }[modulus]
    targets = seeded(f"walk-targets-{modulus}").uniform_mod(q, 1000)
    rng_fast, rng_ref = seeded("walk-ref"), seeded("walk-ref")
    fast = sample_g_batch(width, targets, q, rng_fast)
    ref = gadget_walk_reference(width, targets, q, rng_ref)
    assert fast.shape == ref.shape == (1000, q.bit_length())
    assert np.array_equal(fast, ref)
    assert np.array_equal(rng_fast.u64(4), rng_ref.u64(4))


def test_gadget_walk_matches_level_by_level_walk_in_distribution(ring_toy):
    # The level-by-level walk draws each level at its own width; the
    # pipelined walk draws from one shared row.  For one fixed target, the
    # per-coordinate means and variances of 20,000 draws of each must agree
    # within five standard errors.
    q, width, count = ring_toy.q, ring_toy.alpha_g, 20_000
    targets = np.full(count, int(seeded("walk-dist-target").uniform_mod(q, 1)[0]))
    fast = sample_g_batch(width, targets, q, seeded("walk-dist-fast")).astype(np.float64)
    dense = gadget_walk_dense(width, targets, q, seeded("walk-dist-dense")).astype(np.float64)
    mean_z = (fast.mean(0) - dense.mean(0)) / np.sqrt((fast.var(0) + dense.var(0)) / count)

    def var_and_se(x):
        dev = (x - x.mean(0)) ** 2
        return dev.mean(0), dev.std(0) / math.sqrt(count)

    (v_fast, se_fast), (v_dense, se_dense) = var_and_se(fast), var_and_se(dense)
    var_z = (v_fast - v_dense) / np.sqrt(se_fast**2 + se_dense**2)
    assert float(np.abs(mean_z).max()) < 5.0, mean_z
    assert float(np.abs(var_z).max()) < 5.0, var_z


class _CountingRng(XofRng):
    """A stream that counts the bytes it has served."""

    served = 0

    def bytes(self, count):
        self.served += count
        return super().bytes(count)


def test_gadget_walk_stream_bytes(ring_toy):
    # At this seed, a 512-target ring n=256 walk read 461,552 stream bytes
    # with two 64-bit words per candidate and one level per round for all
    # targets; lazy reads and the pipelined walk must read at most a third.
    q = ring_toy.q
    rng = _CountingRng(seeded("walk-bytes").seed)
    targets = rng.uniform_mod(q, 512)
    start = rng.served
    sample_g_batch(ring_toy.alpha_g, targets, q, rng)
    assert rng.served - start <= 461_552 // 3


def test_gadget_directions_vanish_below_subdiagonal(ring_toy, int_small):
    # The walk skips the residual update of coordinate i + 1 at level i
    # because no later direction reads it: gs_q[r, j] is exactly 0 for r > j + 1.
    for q in (ring_toy.q, int_small.q, 5, 12289):
        k = q.bit_length()
        gs_q, _ = _gadget_gs(gadget_basis(q, k))
        assert not np.tril(gs_q, -2).any()


def test_bit_decompose_round_trip():
    rng = seeded("bits")
    q = 12289
    k = q.bit_length()
    values = rng.uniform_mod(q, 200)
    bits = bit_decompose(values, k)
    assert set(np.unique(bits)) <= {0, 1}
    assert np.array_equal(bits @ (1 << np.arange(k, dtype=np.int64)), values)


def test_gadget_sampler_congruence(ring_toy):
    q = ring_toy.q
    k = ring_toy.k
    rng = seeded("gadget-congruence")
    targets = rng.uniform_mod(q, 1000)
    z = sample_g_batch(ring_toy.alpha_g, targets, q, rng)
    g = gadget_vector(k)
    assert np.array_equal((z * g[None, :]).sum(axis=1) % q, targets % q)


def test_gadget_sampler_matches_coset_enumeration():
    # Tiny modulus: enumerate the full coset within the tail window and
    # compare marginals.  q=5 gives k=3 and a tractable box.
    q, width, target = 5, 4.0, 3
    k = q.bit_length()
    g = gadget_vector(k)
    span = 16
    grid = np.array(
        [(a, b, c)
         for a in range(-span, span + 1)
         for b in range(-span, span + 1)
         for c in range(-span, span + 1)]
    )
    member = (grid @ g) % q == target % q
    coset = grid[member]
    w = np.exp(-math.pi * (coset**2).sum(axis=1) / width**2)
    exact = w / w.sum()

    count = 30_000
    rng = seeded("gadget-dist")
    draws = sample_g_batch(width, np.full(count, target), q, rng)
    exact_var = ((coset**2) * exact[:, None]).sum(axis=0)
    emp_var = (draws.astype(float) ** 2).mean(axis=0)
    rel = np.abs(emp_var / exact_var - 1.0)
    assert float(rel.max()) < 0.15, f"per-coordinate variance off by {rel}"

    key = {tuple(p): i for i, p in enumerate(coset.tolist())}
    observed = np.zeros(len(coset))
    for row in draws.tolist():
        idx = key.get(tuple(row))
        assert idx is not None, f"draw {row} outside the enumeration window"
        observed[idx] += 1
    observed /= count
    tv = 0.5 * float(np.abs(observed - exact).sum())
    assert tv < 0.05, f"total-variation distance {tv:.4f}"


def test_polynomial_gadget_sampler_exact(ring_small):
    from pkeet.ring import get_context

    ctx = get_context(ring_small)
    rng = seeded("poly-gadget")
    g = gadget_vector(ring_small.k)
    for _ in range(20):
        v = rng.uniform_mod(ctx.q, ctx.n)
        z = sample_g_batch(ring_small.alpha_g, v, ctx.q, rng).T
        combo = (z * (g[:, None] % ctx.q)).sum(axis=0) % ctx.q
        assert np.array_equal(combo, v)


def test_perturbation_zero_trapdoor_closed_form():
    ctx = RingContext(64, 7050030948097)
    zeta, alpha, round_width = 300.0, 10.0, 4.0
    k = 8
    t_arr = np.zeros((2, k, 64), dtype=np.int64)
    cov = PerturbationCov(zeta, alpha, t_arr, ctx, round_width=round_width)
    rng = seeded("pert-zero")
    draws = np.stack([cov.sample(rng) for _ in range(3000)])  # (3000, 10, 64)
    head_var = float(draws[:, :2].astype(float).var())
    tail_var = float(draws[:, 2:].astype(float).var())
    want_head = zeta**2 / (2 * math.pi)
    want_tail = (zeta**2 - alpha**2) / (2 * math.pi)
    assert abs(head_var / want_head - 1.0) < 0.10
    assert abs(tail_var / want_tail - 1.0) < 0.10


def _negacyclic(poly: np.ndarray) -> np.ndarray:
    """Matrix of multiplication by ``poly`` in Z[x]/(x^n + 1)."""
    n = poly.size
    mat = np.zeros((n, n))
    for j in range(n):
        col = np.roll(poly.astype(np.float64), j)
        col[:j] *= -1.0
        mat[:, j] = col
    return mat


def test_perturbation_factor_reproduces_covariance():
    n, q, k, rows = 16, 97, 4, 2
    ctx = RingContext(n, q)
    t_bal = seeded("pert-factor").uniform_mod(5, 2 * k * n).reshape(rows, k, n) - 2
    zeta, alpha, round_width = 200.0, 4.0, 2.0
    cov = PerturbationCov(zeta, alpha, t_bal, ctx, round_width=round_width)
    t_slots = np.moveaxis(cov._t_hat, 2, 0)                      # (n, rows, k)
    m = rows + k
    factor = np.zeros((n, m, m), dtype=np.complex128)
    factor[:, :rows, :rows] = cov._schur_chol
    factor[:, :rows, rows:] = -cov._t_scale * t_slots
    factor[:, rows:, rows:] = cov._sqrt_d * np.eye(k)
    stacked = np.concatenate([t_slots, np.broadcast_to(np.eye(k), (n, k, k))], axis=1)
    want = (zeta**2 - round_width**2) * np.eye(m) - alpha**2 * (
        stacked @ stacked.conj().transpose(0, 2, 1)
    )
    got = factor @ factor.conj().transpose(0, 2, 1)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12


def test_perturbation_empirical_covariance():
    # A sparse T keeps alpha^2 T, the base-gadget cross covariance, large
    # against zeta^2, so a wrong sign, scale or conjugation of that block
    # fails one of the two checks below.
    n, q, k, rows = 16, 97, 4, 2
    ctx = RingContext(n, q)
    t_bal = np.zeros((rows, k, n), dtype=np.int64)
    t_bal[0, 0, 3] = 1
    t_bal[1, 1, 5] = -1
    t_bal[0, 2, 0] = t_bal[0, 2, 1] = 1
    t_bal[1, 3, 7] = 2
    basis = np.zeros(((rows + k) * n, k * n))
    for r in range(rows):
        for i in range(k):
            basis[r * n:(r + 1) * n, i * n:(i + 1) * n] = _negacyclic(t_bal[r, i])
    basis[rows * n:] = np.eye(k * n)
    alpha, round_width = 3.0, 3.0
    top = float(np.linalg.eigvalsh(basis @ basis.T).max())
    zeta = math.sqrt(1.3 * alpha**2 * top + round_width**2)
    want = (zeta**2 * np.eye(basis.shape[0]) - alpha**2 * basis @ basis.T) / (2 * math.pi)

    cov = PerturbationCov(zeta, alpha, t_bal, ctx, round_width=round_width)
    rng = seeded("pert-covariance")
    count = 2000
    draws = np.stack([cov.sample(rng).reshape(-1) for _ in range(count)]).astype(np.float64)
    emp = draws.T @ draws / count
    sd = np.sqrt(np.diag(want))
    worst = float((np.abs(emp - want) / np.outer(sd, sd)).max())
    assert worst < 0.15, f"worst normalized covariance error {worst:.3f}"
    cross, emp_cross = want[: rows * n, rows * n:], emp[: rows * n, rows * n:]
    c = float((emp_cross * cross).sum() / (cross * cross).sum())
    assert abs(c - 1.0) < 0.1, f"cross-covariance ratio {c:.3f}"


def test_perturbation_rejects_insufficient_width():
    ctx = RingContext(16, 97)
    t_arr = np.ones((2, 7, 16), dtype=np.int64) * 5
    with pytest.raises(CovarianceNotPD):
        PerturbationCov(6.0, 5.0, t_arr, ctx, round_width=1.0)
    with pytest.raises(WidthTooSmall):
        PerturbationCov(300.0, 5.0, t_arr, ctx, round_width=0.5)
