"""Public-key encryption with equality test over lattices.

Two scheme families offer the same five operations, each through its own
functions, objects and frames; neither reads the other's keys, ciphertexts
or tokens:

* a polynomial-ring scheme (fast, compact keys), exposed as
  :func:`setup`, :func:`encrypt`, :func:`decrypt`, :func:`trapdoor`,
  :func:`test`;
* an integer-lattice scheme, exposed as the ``*_int`` variants.

Each public key carries two independent encryption slots: one hides the
message, the other hides a hash of it. Decryption opens both and checks
consistency; the equality-test token opens only the hash slot, so a pair of
tokens can compare ciphertexts from different keys without revealing the
messages. Ciphertexts are bound together by a one-time signature, and every
reject path raises a typed :class:`~pkeet.errors.PkeetError` subclass; a
ciphertext that decryption or the test refuses raises
:class:`~pkeet.errors.RejectSignature`, :class:`~pkeet.errors.RejectHash` or
:class:`~pkeet.errors.RejectNoise`.

Deterministic randomness comes from :class:`XofRng` (SHAKE-256 seeded);
parameter sets come from :func:`derive_ring_params` / :func:`derive_int_params`
and serialize alongside every key, ciphertext, and token frame.
"""

from .errors import PkeetError, RejectHash, RejectNoise, RejectSignature
from .params import (
    ParamsInt,
    ParamsRing,
    derive_int_params,
    derive_ring_params,
    params_from_text,
    validate,
)
from .pkeet_int import (
    CtInt,
    PkInt,
    SkInt,
    TrapdoorTokenInt,
    decrypt_int,
    encrypt_int,
    setup_int,
    test_int,
    trapdoor_int,
)
from .pkeet_ring import (
    CtRing,
    PkRing,
    SkRing,
    TrapdoorTokenRing,
    decrypt,
    encrypt,
    setup,
    test,
    trapdoor,
)
from .rng import XofRng, fresh_seed, rng_from_seed
from .serial import decode_object, encode_object

__version__ = "0.1.0"

__all__ = [
    "PkeetError",
    "RejectSignature",
    "RejectHash",
    "RejectNoise",
    "ParamsRing",
    "ParamsInt",
    "derive_ring_params",
    "derive_int_params",
    "params_from_text",
    "validate",
    "XofRng",
    "rng_from_seed",
    "fresh_seed",
    "setup",
    "encrypt",
    "decrypt",
    "trapdoor",
    "test",
    "PkRing",
    "SkRing",
    "CtRing",
    "TrapdoorTokenRing",
    "setup_int",
    "encrypt_int",
    "decrypt_int",
    "trapdoor_int",
    "test_int",
    "PkInt",
    "SkInt",
    "CtInt",
    "TrapdoorTokenInt",
    "encode_object",
    "decode_object",
    "__version__",
]
