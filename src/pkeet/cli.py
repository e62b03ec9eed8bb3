"""Command-line interface: key generation, encryption, decryption, trapdoor
issuance, equality testing, and the self-test table.

Exit codes are a stable contract: 0 for success (or EQUAL), 1 for
NOT-EQUAL and for decryption and test rejections, 2 for malformed input
(bad framing, digest mismatch, a secret key that does not match the public
key, oversized messages, unusable arguments).  Stdout carries
hex payloads and the EQUAL/NOT-EQUAL verdict; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import binascii
import sys
from pathlib import Path

import numpy as np

from . import pkeet_int, pkeet_ring, serial
from .errors import KeyMismatch, PkeetError, RejectHash, RejectNoise, RejectSignature
from .matlattice import gadget_residual
from .params import ParamsInt, ParamsRing, derive_int_params, derive_ring_params
from .ring import RingElement, get_context
from .rng import SEED_BYTES, XofRng, fresh_seed
from .trapdoor_ring import trapdoor_identity_residual

_DEFAULT_N = {"ring": 256, "int": 32}


class UsageError(Exception):
    """Malformed input that maps to exit code 2."""


def _parse_seed(text: str | None) -> bytes:
    if text is None:
        return fresh_seed()
    try:
        seed = binascii.unhexlify(text)
    except (binascii.Error, ValueError) as exc:
        raise UsageError(f"seed must be hex: {exc}") from exc
    if len(seed) != SEED_BYTES:
        raise UsageError(f"seed must be {SEED_BYTES} bytes ({2 * SEED_BYTES} hex chars)")
    return seed


def _capacity_bits(params) -> int:
    return params.n if isinstance(params, ParamsRing) else params.t_msg


def _message_bits(data: bytes, params) -> np.ndarray:
    capacity = _capacity_bits(params)
    value = int.from_bytes(data, "big")
    if value.bit_length() > capacity:
        raise UsageError(
            f"message needs {value.bit_length()} bits but this key holds "
            f"{capacity} bits ({(capacity + 7) // 8} bytes)"
        )
    return np.array([(value >> i) & 1 for i in range(capacity)], dtype=np.int64)


def _bits_to_hex(bits: np.ndarray) -> str:
    value = 0
    for i, b in enumerate(bits.tolist()):
        value |= int(b) << i
    width = (len(bits) + 7) // 8
    return value.to_bytes(width, "big").hex()


def _read_frame(path: str, kind: int):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    _, _, params, obj = serial.decode_object(data, expect_kind=kind)
    return params, obj


def _write_frame(path: Path, blob: bytes) -> None:
    try:
        path.write_bytes(blob)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _check_key_pair(pk, sk, params) -> None:
    """Raise :class:`KeyMismatch` unless ``sk`` holds the trapdoors of ``pk``."""
    if isinstance(params, ParamsRing):
        pairs = ((pk.a, sk.t_a), (pk.b, sk.t_b))
        bad = any(trapdoor_identity_residual(vec, trap).any() for vec, trap in pairs)
    else:
        pairs = ((pk.a, sk.t_a), (pk.a_prime, sk.t_a_prime))
        bad = any(gadget_residual(a, trap.r, params.q).any() for a, trap in pairs)
    if bad:
        raise KeyMismatch("the secret key does not belong to the public key")


def _derive(scheme: str, profile: str, n: int | None, security: int) -> ParamsRing | ParamsInt:
    n = n if n is not None else _DEFAULT_N[scheme]
    if scheme == "ring":
        return derive_ring_params(security, n, profile)
    return derive_int_params(security, n, profile)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_keygen(args: argparse.Namespace) -> int:
    params = _derive(args.scheme, args.profile, args.n, args.security)
    rng = XofRng(_parse_seed(args.seed))
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create {out_dir}: {exc}") from exc
    pk_path = out_dir / f"{args.name}.pk"
    sk_path = out_dir / f"{args.name}.sk"
    if args.scheme == "ring":
        pk, sk = pkeet_ring.setup(params, rng)
        pk_blob, sk_blob = serial.encode_ring_pk(pk, params), serial.encode_ring_sk(sk, params)
    else:
        pk, sk = pkeet_int.setup_int(params, rng)
        pk_blob, sk_blob = serial.encode_int_pk(pk, params), serial.encode_int_sk(sk, params)
    _write_frame(pk_path, pk_blob)
    try:
        _write_frame(sk_path, sk_blob)
    except UsageError:
        # A public key whose secret key was never saved is useless.
        pk_path.unlink(missing_ok=True)
        raise
    print(f"wrote {pk_path} and {sk_path}", file=sys.stderr)
    return 0


def cmd_encrypt(args: argparse.Namespace) -> int:
    params, pk = _read_frame(args.pk, serial.KIND_PK)
    try:
        data = binascii.unhexlify(args.message)
    except (binascii.Error, ValueError) as exc:
        raise UsageError(f"message must be hex: {exc}") from exc
    bits = _message_bits(data, params)
    rng = XofRng(_parse_seed(args.seed))
    if isinstance(params, ParamsRing):
        message = RingElement(bits, get_context(params))
        ct = pkeet_ring.encrypt(pk, message, params, rng)
        blob = serial.encode_ring_ct(ct, params)
    else:
        ct = pkeet_int.encrypt_int(pk, bits, params, rng)
        blob = serial.encode_int_ct(ct, params)
    _write_frame(Path(args.out), blob)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_decrypt(args: argparse.Namespace) -> int:
    params, pk = _read_frame(args.pk, serial.KIND_PK)
    params_sk, sk = _read_frame(args.sk, serial.KIND_SK)
    params_ct, ct = _read_frame(args.ct, serial.KIND_CT)
    serial.require_same_params(params, params_sk, params_ct)
    _check_key_pair(pk, sk, params)
    rng = XofRng(_parse_seed(args.seed))
    try:
        if isinstance(params, ParamsRing):
            message = pkeet_ring.decrypt(pk, sk, ct, params, rng)
            bits = message.coeffs
        else:
            bits = pkeet_int.decrypt_int(pk, sk, ct, params, rng)
    except (RejectSignature, RejectHash, RejectNoise) as exc:
        print(f"decryption rejected: {exc}", file=sys.stderr)
        return 1
    print(_bits_to_hex(bits))
    return 0


def cmd_trapdoor(args: argparse.Namespace) -> int:
    params, pk = _read_frame(args.pk, serial.KIND_PK)
    params_sk, sk = _read_frame(args.sk, serial.KIND_SK)
    serial.require_same_params(params, params_sk)
    _check_key_pair(pk, sk, params)
    if isinstance(params, ParamsRing):
        td = pkeet_ring.trapdoor(sk, pk)
        blob = serial.encode_ring_td(td, params)
    else:
        td = pkeet_int.trapdoor_int(sk, pk)
        blob = serial.encode_int_td(td, params)
    _write_frame(Path(args.out), blob)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    params_i, td_i = _read_frame(args.td_i, serial.KIND_TD)
    params_j, td_j = _read_frame(args.td_j, serial.KIND_TD)
    params_ci, ct_i = _read_frame(args.ct_i, serial.KIND_CT)
    params_cj, ct_j = _read_frame(args.ct_j, serial.KIND_CT)
    serial.require_same_params(params_i, params_j, params_ci, params_cj)
    rng = XofRng(_parse_seed(args.seed))
    try:
        if isinstance(params_i, ParamsRing):
            equal = pkeet_ring.test(td_i, td_j, ct_i, ct_j, params_i, rng)
        else:
            equal = pkeet_int.test_int(td_i, td_j, ct_i, ct_j, params_i, rng)
    except RejectNoise as exc:
        print(f"test rejected: {exc}", file=sys.stderr)
        return 1
    print("EQUAL" if equal else "NOT-EQUAL")
    return 0 if equal else 1


def cmd_selftest(args: argparse.Namespace) -> int:
    from . import acceptance

    wanted = None
    if args.criteria:
        try:
            wanted = sorted({int(c) for c in args.criteria.split(",")})
        except ValueError as exc:
            raise UsageError(f"criteria must be a comma-separated list: {exc}") from exc
        unknown = [c for c in wanted if c not in acceptance.CRITERIA]
        if unknown:
            raise UsageError(
                f"unknown criteria {unknown}; choose from {sorted(acceptance.CRITERIA)}"
            )
    results = acceptance.run_all(profile=args.profile, criteria=wanted)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{mark}  criterion {r.number}: {r.name:<{width}}  {r.detail} ({r.seconds:.1f}s)")
    print("self-test: " + ("all criteria passed" if all_ok else "FAILURES PRESENT"))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkeet",
        description="Lattice public-key encryption with equality test.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--scheme", choices=["ring", "int"], required=True)
    p.add_argument("--profile", choices=["toy", "strict"], default="toy")
    p.add_argument("--n", type=int, default=None, help="lattice dimension")
    p.add_argument("--security", type=int, default=128, help="security label, 1 to 256")
    p.add_argument("--seed", default=None, help="32-byte hex seed")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--name", default="key", help="output file stem")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a hex message")
    p.add_argument("--pk", required=True)
    p.add_argument("--message", required=True, help="hex payload")
    p.add_argument("--seed", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--pk", required=True)
    p.add_argument("--sk", required=True)
    p.add_argument("--ct", required=True)
    p.add_argument("--seed", default=None, help="checked, then ignored: decryption draws no randomness")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("trapdoor", help="issue an equality-test token")
    p.add_argument("--sk", required=True)
    p.add_argument("--pk", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trapdoor)

    p = sub.add_parser("test", help="equality-test two ciphertexts")
    p.add_argument("--td-i", required=True)
    p.add_argument("--td-j", required=True)
    p.add_argument("--ct-i", required=True)
    p.add_argument("--ct-j", required=True)
    p.add_argument("--seed", default=None, help="checked, then ignored: the test draws no randomness")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("selftest", help="run the acceptance table")
    p.add_argument("--profile", choices=["toy", "strict"], default="toy")
    p.add_argument("--criteria", default=None, help="comma-separated subset, e.g. 1,4,5")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PkeetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
