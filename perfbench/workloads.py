"""The benchmark's workloads: set-up, one op, and the check of each op.

Every input derives from the workload seed through `XofRng`.  An op's
`run` is the timed user path; its `check` runs afterwards, untimed, and
names the failure kind when an output is wrong.  A `PkeetError` raised by
`run` is a failure of that op, counted under its class name.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

import pkeet
from pkeet import serial
from pkeet.ring import RingElement, get_context
from pkeet.trapdoor_ring import trapdoor_identity_residual


def root_rng(workload: str, seed: int) -> pkeet.XofRng:
    digest = hashlib.shake_256(f"perfbench|{workload}|{seed}".encode()).digest(32)
    return pkeet.XofRng(digest)


def _decode(frame: bytes, kind: int):
    return serial.decode_object(frame, expect_kind=kind)[3]


def _bits(rng: pkeet.XofRng, count: int) -> np.ndarray:
    return rng.uniform_mod(2, count)


class Workload:
    """Base: subclasses set the class fields and define set_up, run, check."""

    name = ""
    default_n = 0
    trace_ops = 0          # ops per pass in the traced run
    samples: tuple = ()    # sub-op timing keys, in ms unless named *_s

    def __init__(self, seed: int, n: int | None = None, part: int = 0):
        self.n = n or self.default_n
        self.part = part
        self.root = root_rng(self.name, seed)
        self.sizes: dict[str, int] = {}
        self.digest = hashlib.sha256()

    def start_pass(self) -> None:
        """Reset the op stream; two passes of the same ops see the same inputs.

        Each part of a seed is its own stream of ops."""
        self.ops_rng = self.root.fork(b"ops-%d" % self.part)
        self.digest = hashlib.sha256()

    def warm_up(self) -> None:
        """One op on its own stream, so that first-call costs fall in set-up."""
        saved = self.digest
        self.ops_rng = self.root.fork(b"warm-up-%d" % self.part)
        state = self.run(-1, {key: [] for key in self.samples})
        kind = self.check(-1, state)
        if kind is not None:
            raise RuntimeError(f"warm-up op failed its check: {kind}")
        self.digest = saved

    def _reencodes(self, frame: bytes, kind: int, encode, params) -> bool:
        return encode(_decode(frame, kind), params) == frame


class _Timer:
    """Appends the duration of a `with` block to `times[key]`."""

    def __init__(self, times: dict, key: str, scale: float):
        self.times, self.key, self.scale = times, key, scale

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.times[self.key].append((time.perf_counter() - self.t0) * self.scale)
        return False


def timed(times: dict, key: str) -> _Timer:
    return _Timer(times, key, 1.0 if key.endswith("_s") else 1e3)


# ---------------------------------------------------------------------------
# Ring scheme
# ---------------------------------------------------------------------------


class _RingKeys(Workload):
    """Ring parameters and key pairs loaded back from their frames, as the
    command-line tools load them."""

    default_n = 256

    def _params(self):
        self.params = pkeet.derive_ring_params(128, self.n, "toy")
        self.ctx = get_context(self.params)

    def _user(self, label: bytes):
        p = self.params
        pk, sk = pkeet.setup(p, self.root.fork(b"key-" + label))
        pk_frame, sk_frame = serial.encode_ring_pk(pk, p), serial.encode_ring_sk(sk, p)
        pk, sk = _decode(pk_frame, serial.KIND_PK), _decode(sk_frame, serial.KIND_SK)
        td_frame = serial.encode_ring_td(pkeet.trapdoor(sk, pk), p)
        self.sizes.update(pk_bytes=len(pk_frame), sk_bytes=len(sk_frame), td_bytes=len(td_frame))
        return pk, sk, td_frame

    def _ct_frame(self, pk, bits: np.ndarray, rng) -> bytes:
        ct = pkeet.encrypt(pk, RingElement(bits, self.ctx), self.params, rng)
        frame = serial.encode_ring_ct(ct, self.params)
        self.sizes["ct_bytes"] = len(frame)
        return frame


class RingRoundtrip(_RingKeys):
    """Sender and owner path: encrypt, CT frame round trip, decrypt."""

    name = "ring-roundtrip"
    trace_ops = 24
    samples = ("encrypt_ms", "frame_ms", "decrypt_ms")

    def set_up(self) -> None:
        self._params()
        self.pk, self.sk, _ = self._user(b"a")
        rng = self.root.fork(b"size")
        self._ct_frame(self.pk, _bits(rng, self.n), rng)

    def run(self, k: int, times: dict):
        rng, p = self.ops_rng, self.params
        bits = _bits(rng, self.n)
        with timed(times, "encrypt_ms"):
            ct = pkeet.encrypt(self.pk, RingElement(bits, self.ctx), p, rng)
        with timed(times, "frame_ms"):
            frame = serial.encode_ring_ct(ct, p)
            ct = _decode(frame, serial.KIND_CT)
        with timed(times, "decrypt_ms"):
            out = pkeet.decrypt(self.pk, self.sk, ct, p, rng)
        return bits, frame, out

    def check(self, k: int, state) -> str | None:
        bits, frame, out = state
        self.digest.update(frame)
        self.digest.update(out.coeffs.tobytes())
        if not self._reencodes(frame, serial.KIND_CT, serial.encode_ring_ct, self.params):
            return "frame_reencode"
        if not np.array_equal(out.coeffs, bits):
            return "wrong_decrypt"
        return None


class RingEqtestCold(_RingKeys):
    """Tester path as `pkeet test` runs it: decode two TD and two CT frames,
    then test; every op rebuilds both tokens' perturbation covariances."""

    name = "ring-eqtest-cold"
    trace_ops = 24
    samples = ("decode_ms", "test_ms")
    corpus = 4

    def set_up(self) -> None:
        self._params()
        pk_a, _, self.td_a = self._user(b"a")
        pk_b, _, self.td_b = self._user(b"b")
        rng = self.root.fork(b"corpus")
        pool = [_bits(rng, self.n) for _ in range(self.corpus)]
        # User b's j-th ciphertext hides message shift[j]; pairs with
        # equal messages are (i, j) with shift[j] == i.
        self.shift = [int(x) for x in np.argsort(rng.uniform01(self.corpus))]
        self.ct_a = [self._ct_frame(pk_a, pool[i], rng) for i in range(self.corpus)]
        self.ct_b = [self._ct_frame(pk_b, pool[s], rng) for s in self.shift]

    def run(self, k: int, times: dict):
        rng, p = self.ops_rng, self.params
        i = int(rng.uniform_mod(self.corpus, 1)[0])
        equal = k % 2 == 0
        match = self.shift.index(i)
        j = match if equal else (match + 1 + int(rng.uniform_mod(self.corpus - 1, 1)[0])) % self.corpus
        frames = (self.td_a, self.td_b, self.ct_a[i], self.ct_b[j])
        with timed(times, "decode_ms"):
            td_a = _decode(frames[0], serial.KIND_TD)
            td_b = _decode(frames[1], serial.KIND_TD)
            ct_i = _decode(frames[2], serial.KIND_CT)
            ct_j = _decode(frames[3], serial.KIND_CT)
        with timed(times, "test_ms"):
            verdict = pkeet.test(td_a, td_b, ct_i, ct_j, p, rng)
        return equal, frames, verdict

    def check(self, k: int, state) -> str | None:
        equal, frames, verdict = state
        self.digest.update(bytes([verdict]))
        for frame, kind, enc in zip(
            frames,
            (serial.KIND_TD, serial.KIND_TD, serial.KIND_CT, serial.KIND_CT),
            (serial.encode_ring_td, serial.encode_ring_td, serial.encode_ring_ct, serial.encode_ring_ct),
        ):
            self.digest.update(hashlib.sha256(frame).digest())
            if not self._reencodes(frame, kind, enc, self.params):
                return "frame_reencode"
        if verdict != int(equal):
            return "wrong_verdict"
        return None


class RingKeygen(_RingKeys):
    """Key owner's set-up path: `setup` for fresh key seeds, `trapdoor`, and
    the pk, sk and TD frame encodes.

    One op provisions `keys_per_op` keys.  A single `setup` costs one, two
    or more trapdoor draws per vector, so its time is multimodal and the
    median of single calls jumps between modes from seed to seed; the time
    of a batch of keys is unimodal."""

    name = "ring-keygen"
    trace_ops = 6
    samples = ("keygen_s", "trapdoor_ms", "encode_ms")
    keys_per_op = 4

    def set_up(self) -> None:
        self._params()

    def warm_up(self) -> None:
        super().warm_up()
        pk_frame, sk_frame, td_frame = self.frames[0]
        self.sizes.update(pk_bytes=len(pk_frame), sk_bytes=len(sk_frame), td_bytes=len(td_frame))
        rng = self.root.fork(b"size")
        self._ct_frame(_decode(pk_frame, serial.KIND_PK), _bits(rng, self.n), rng)

    def run(self, k: int, times: dict):
        p = self.params
        out = []
        # The warm-up op (k = -1) makes one key: first-call costs need no more,
        # and each key's trapdoor draws would add to `setup_s`'s noise.
        for key in range(1 if k < 0 else self.keys_per_op):
            rng = self.ops_rng.fork(b"keygen-%d-%d" % (k, key))
            with timed(times, "keygen_s"):
                pk, sk = pkeet.setup(p, rng)
            with timed(times, "trapdoor_ms"):
                td = pkeet.trapdoor(sk, pk)
            with timed(times, "encode_ms"):
                out.append((
                    serial.encode_ring_pk(pk, p),
                    serial.encode_ring_sk(sk, p),
                    serial.encode_ring_td(td, p),
                ))
        return out

    def check(self, k: int, batch) -> str | None:
        p = self.params
        self.frames = batch
        kinds = (serial.KIND_PK, serial.KIND_SK, serial.KIND_TD)
        encs = (serial.encode_ring_pk, serial.encode_ring_sk, serial.encode_ring_td)
        for frames in batch:
            for frame, kind, enc in zip(frames, kinds, encs):
                self.digest.update(frame)
                if not self._reencodes(frame, kind, enc, p):
                    return "frame_reencode"
            pk, sk = _decode(frames[0], serial.KIND_PK), _decode(frames[1], serial.KIND_SK)
            for vec, trap in ((pk.a, sk.t_a), (pk.b, sk.t_b)):
                if trapdoor_identity_residual(vec, trap).any():
                    return "trapdoor_identity"
        return None


# ---------------------------------------------------------------------------
# Integer scheme
# ---------------------------------------------------------------------------


class IntRoundtrip(Workload):
    """Both users encrypt, CT frames round-trip, both decrypt, then the
    tester compares the two ciphertexts; equal and distinct messages
    alternate."""

    name = "int-roundtrip"
    default_n = 16
    trace_ops = 2
    samples = ("encrypt_ms", "frame_ms", "decrypt_ms", "test_ms")

    def set_up(self) -> None:
        p = self.params = pkeet.derive_int_params(128, self.n, "toy")
        self.users = []
        for label in (b"a", b"b"):
            pk, sk = pkeet.setup_int(p, self.root.fork(b"key-" + label))
            pk_frame, sk_frame = serial.encode_int_pk(pk, p), serial.encode_int_sk(sk, p)
            pk, sk = _decode(pk_frame, serial.KIND_PK), _decode(sk_frame, serial.KIND_SK)
            td_frame = serial.encode_int_td(pkeet.trapdoor_int(sk, pk), p)
            self.users.append((pk, sk, _decode(td_frame, serial.KIND_TD)))
            self.sizes.update(pk_bytes=len(pk_frame), sk_bytes=len(sk_frame), td_bytes=len(td_frame))

    def run(self, k: int, times: dict):
        rng, p = self.ops_rng, self.params
        msg_a = _bits(rng, p.t_msg)
        msg_b = msg_a.copy() if k % 2 == 0 else _bits(rng, p.t_msg)
        if k % 2 and np.array_equal(msg_a, msg_b):
            msg_b[0] ^= 1
        msgs, cts, frames, outs = (msg_a, msg_b), [], [], []
        for (pk, _, _), msg in zip(self.users, msgs):
            with timed(times, "encrypt_ms"):
                ct = pkeet.encrypt_int(pk, msg, p, rng)
            with timed(times, "frame_ms"):
                frames.append(serial.encode_int_ct(ct, p))
                cts.append(_decode(frames[-1], serial.KIND_CT))
        for (pk, sk, _), ct in zip(self.users, cts):
            with timed(times, "decrypt_ms"):
                outs.append(pkeet.decrypt_int(pk, sk, ct, p, rng))
        with timed(times, "test_ms"):
            verdict = pkeet.test_int(self.users[0][2], self.users[1][2], cts[0], cts[1], p, rng)
        return k % 2 == 0, msgs, frames, outs, verdict

    def check(self, k: int, state) -> str | None:
        equal, msgs, frames, outs, verdict = state
        self.sizes["ct_bytes"] = len(frames[0])
        for frame in frames:
            self.digest.update(frame)
        self.digest.update(bytes([verdict]))
        for frame in frames:
            if not self._reencodes(frame, serial.KIND_CT, serial.encode_int_ct, self.params):
                return "frame_reencode"
        for msg, out in zip(msgs, outs):
            if not np.array_equal(msg, out):
                return "wrong_decrypt"
        if verdict != int(equal):
            return "wrong_verdict"
        return None


WORKLOADS = {w.name: w for w in (RingRoundtrip, RingEqtestCold, RingKeygen, IntRoundtrip)}
