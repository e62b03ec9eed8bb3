"""Mutated frames: decoding stays total and bijective, the CLI keeps its
exit codes.

A flipped, truncated or extended frame must either raise a typed
:class:`PkeetError` or decode to an object that re-encodes to exactly the
mutated bytes.  The keys are toy records (ring n=16, integer n=16), built
once per module; the command-line fuzz covers both schemes.  Integer
public keys and tokens (version 3, seed-expanded) also meet each fault of
their own layout, at n=21, where the stored gadget tail ends mid-byte.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pkeet import pkeet_int as pi
from pkeet import pkeet_ring as pr
from pkeet import serial
from pkeet.cli import main
from pkeet.errors import FramingError, PkeetError
from pkeet.params import derive_int_params, derive_ring_params
from pkeet.ring import RingElement, get_context
from conftest import seeded
from test_serial import SEED_FAULTS, with_seed_fault, with_version

KINDS = (serial.KIND_PK, serial.KIND_SK, serial.KIND_CT, serial.KIND_TD, serial.KIND_PARAMS)
SEED = "cc" * 32


@pytest.fixture(scope="module")
def frames():
    out = {}
    params = derive_ring_params(128, 16, "toy")
    rng = seeded("fuzz-ring")
    pk, sk = pr.setup(params, rng)
    ct = pr.encrypt(pk, RingElement(rng.uniform_mod(2, 16), get_context(params)), params, rng)
    objs = {serial.KIND_PK: pk, serial.KIND_SK: sk, serial.KIND_CT: ct,
            serial.KIND_TD: pr.trapdoor(sk, pk), serial.KIND_PARAMS: params}
    for kind in KINDS:
        out[serial.SCHEME_RING, kind] = serial.encode_object(serial.SCHEME_RING, kind, objs[kind], params)
    params = derive_int_params(128, 16, "toy")
    rng = seeded("fuzz-int")
    pk, sk = pi.setup_int(params, rng)
    ct = pi.encrypt_int(pk, rng.uniform_mod(2, params.t_msg), params, rng)
    objs = {serial.KIND_PK: pk, serial.KIND_SK: sk, serial.KIND_CT: ct,
            serial.KIND_TD: pi.trapdoor_int(sk, pk), serial.KIND_PARAMS: params}
    for kind in KINDS:
        out[serial.SCHEME_INT, kind] = serial.encode_object(serial.SCHEME_INT, kind, objs[kind], params)
    return out


def _cli_files(d, scheme: str, n: str):
    with contextlib.redirect_stderr(io.StringIO()):
        for name, seed, message in (("alice", "aa" * 32, "1234"), ("bob", "bb" * 32, "5678")):
            assert main(["keygen", "--scheme", scheme, "--n", n, "--seed", seed,
                         "--out-dir", str(d), "--name", name]) == 0
            assert main(["encrypt", "--pk", f"{d}/{name}.pk", "--message", message,
                         "--seed", seed, "--out", f"{d}/{name}.ct"]) == 0
            assert main(["trapdoor", "--sk", f"{d}/{name}.sk", "--pk", f"{d}/{name}.pk",
                         "--out", f"{d}/{name}.td"]) == 0
    return d


@pytest.fixture(scope="module")
def ring_files(tmp_path_factory):
    return _cli_files(tmp_path_factory.mktemp("fuzz-cli"), "ring", "16")


@pytest.fixture(scope="module")
def int_files(tmp_path_factory):
    return _cli_files(tmp_path_factory.mktemp("fuzz-cli-int"), "int", "16")


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    how = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if how == "extend":
        return blob + draw(st.binary(min_size=1, max_size=16))
    # Half of the flips land in the header and parameter text.
    near_front = draw(st.booleans())
    i = draw(st.integers(0, (min(len(blob), 512) if near_front else len(blob)) - 1))
    return blob[:i] + bytes([blob[i] ^ draw(st.integers(1, 255))]) + blob[i + 1:]


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_frames_fail_typed_or_round_trip(frames, data):
    scheme, kind = data.draw(st.sampled_from(sorted(frames)))
    bad = data.draw(mutations(frames[scheme, kind]))
    try:
        scheme2, kind2, params, obj = serial.decode_object(bad)
    except PkeetError:
        return
    assert serial.encode_object(scheme2, kind2, obj, params) == bad


@pytest.fixture(scope="module")
def seeded_frames():
    """Integer n=21 (k=29) pk and td frames: 21 x 609 tail values of 29 bits."""
    params = derive_int_params(128, 21, "toy")
    pk, sk = pi.setup_int(params, seeded("fuzz-int-21"))
    return [serial.encode_object(serial.SCHEME_INT, kind, obj, params)
            for kind, obj in ((serial.KIND_PK, pk), (serial.KIND_TD, pi.trapdoor_int(sk, pk)))]


# What each fault of a seeded frame trips.
SEED_FAULT_ERRORS = {"seed-short": "shorter", "tail-q": "canonical range",
                     "tail-pad-bit": "pad bits", "version-2": "unsupported version 2"}


@pytest.mark.parametrize("fault", SEED_FAULTS)
def test_seeded_int_frame_faults_raise_framing_error(seeded_frames, fault):
    for blob in seeded_frames:
        assert blob[4] == 3
        with pytest.raises(FramingError, match=SEED_FAULT_ERRORS[fault]):
            serial.decode_object(with_seed_fault(blob, fault))


def test_ring_version_two_frames_still_decode(frames):
    for (scheme, kind), blob in frames.items():
        if scheme != serial.SCHEME_RING:
            continue
        assert blob[4] == 2
        scheme2, kind2, params, obj = serial.decode_object(blob)
        assert serial.encode_object(scheme2, kind2, obj, params) == blob
        with pytest.raises(FramingError, match="unsupported version 3"):
            serial.decode_object(with_version(blob, 3))


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _mutated_run(d, data, command: str, files: dict) -> int:
    role = data.draw(st.sampled_from(sorted(files)))
    mutated = d / "mutated"
    mutated.write_bytes(data.draw(mutations(files[role].read_bytes())))
    files[role] = mutated
    argv = [command, "--seed", SEED]
    for flag, path in files.items():
        argv += [flag, str(path)]
    return _run(argv)


def _decrypt_of_mutated_frame(d, data) -> int:
    files = {"--pk": d / "alice.pk", "--sk": d / "alice.sk", "--ct": d / "alice.ct"}
    return _mutated_run(d, data, "decrypt", files)


def _test_of_mutated_frame(d, data) -> int:
    # The two ciphertexts hide different messages, so EQUAL (exit 0) is wrong.
    files = {"--td-i": d / "alice.td", "--td-j": d / "bob.td",
             "--ct-i": d / "alice.ct", "--ct-j": d / "bob.ct"}
    return _mutated_run(d, data, "test", files)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_decrypt_of_mutated_frame_exits_one_or_two(ring_files, data):
    assert _decrypt_of_mutated_frame(ring_files, data) in (1, 2)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_test_of_mutated_frame_exits_one_or_two(ring_files, data):
    assert _test_of_mutated_frame(ring_files, data) in (1, 2)


# Integer frames run to megabytes and one decrypt or test takes a good
# fraction of a second, so these fuzz with few examples.
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_decrypt_of_mutated_int_frame_exits_one_or_two(int_files, data):
    assert _decrypt_of_mutated_frame(int_files, data) in (1, 2)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_test_of_mutated_int_frame_exits_one_or_two(int_files, data):
    assert _test_of_mutated_frame(int_files, data) in (1, 2)


def _unmutated_inputs_succeed(d) -> None:
    assert _run(["decrypt", "--pk", f"{d}/alice.pk", "--sk", f"{d}/alice.sk",
                 "--ct", f"{d}/alice.ct", "--seed", SEED]) == 0
    assert _run(["test", "--td-i", f"{d}/alice.td", "--td-j", f"{d}/bob.td",
                 "--ct-i", f"{d}/alice.ct", "--ct-j", f"{d}/bob.ct", "--seed", SEED]) == 1


def test_unmutated_cli_inputs_succeed(ring_files):
    _unmutated_inputs_succeed(ring_files)


def test_unmutated_int_cli_inputs_succeed(int_files):
    _unmutated_inputs_succeed(int_files)
