"""Command-line interface: pipelines, hex handling, exit-code contract.

Exit codes: 0 success (or EQUAL), 1 equality-test mismatch or decryption
rejection, 2 malformed input of any kind.
"""

import dataclasses

import pytest

from pkeet import pkeet_int as pi
from pkeet import pkeet_ring as pr
from pkeet import serial
from pkeet.cli import main
from pkeet.params import ParamsRing, derive_int_params, derive_ring_params
from pkeet.ring import RingElement, get_context
from conftest import seeded
from test_params import _CRAFTED, crafted_frame
from test_serial import (
    RESPELLINGS,
    SEED_FAULTS,
    packed_arrays,
    respelled_frame,
    with_body_length,
    with_pad_bit,
    with_seed_fault,
    with_value,
    with_version,
)

SEED_A = "aa" * 32
SEED_B = "bb" * 32


@pytest.fixture(scope="module")
def ring_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("ring-cli")
    assert main(["keygen", "--scheme", "ring", "--n", "64", "--seed", SEED_A,
                 "--out-dir", str(d), "--name", "alice"]) == 0
    assert main(["keygen", "--scheme", "ring", "--n", "64", "--seed", SEED_B,
                 "--out-dir", str(d), "--name", "bob"]) == 0
    return d


def test_round_trip_pipeline(ring_files, capsys):
    d = ring_files
    msg = "0badf00d"   # 32 bits, capacity is 64 bits at n=64
    assert main(["encrypt", "--pk", f"{d}/alice.pk", "--message", msg,
                 "--seed", SEED_A, "--out", f"{d}/ct"]) == 0
    capsys.readouterr()
    assert main(["decrypt", "--pk", f"{d}/alice.pk", "--sk", f"{d}/alice.sk",
                 "--ct", f"{d}/ct"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == msg.rjust(16, "0")


def test_equality_pipeline(ring_files, capsys):
    d = ring_files
    for name, seed, message in (
        ("ct-a", SEED_A, "1234"), ("ct-b", SEED_B, "1234"), ("ct-c", SEED_B, "9999")
    ):
        pk = f"{d}/alice.pk" if name == "ct-a" else f"{d}/bob.pk"
        assert main(["encrypt", "--pk", pk, "--message", message,
                     "--seed", seed, "--out", f"{d}/{name}"]) == 0
    assert main(["trapdoor", "--sk", f"{d}/alice.sk", "--pk", f"{d}/alice.pk",
                 "--out", f"{d}/alice.td"]) == 0
    assert main(["trapdoor", "--sk", f"{d}/bob.sk", "--pk", f"{d}/bob.pk",
                 "--out", f"{d}/bob.td"]) == 0
    capsys.readouterr()
    rc = main(["test", "--td-i", f"{d}/alice.td", "--td-j", f"{d}/bob.td",
               "--ct-i", f"{d}/ct-a", "--ct-j", f"{d}/ct-b"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "EQUAL"
    rc = main(["test", "--td-i", f"{d}/alice.td", "--td-j", f"{d}/bob.td",
               "--ct-i", f"{d}/ct-a", "--ct-j", f"{d}/ct-c"])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "NOT-EQUAL"


def test_tampered_ciphertext_exits_one(ring_files, capsys):
    d = ring_files
    assert main(["encrypt", "--pk", f"{d}/alice.pk", "--message", "77",
                 "--seed", SEED_A, "--out", f"{d}/ct-t"]) == 0
    blob = bytearray((d / "ct-t").read_bytes())
    blob[-16] ^= 0x04   # a low bit of a ct4 coefficient: stays a residue mod q
    (d / "ct-bad").write_bytes(bytes(blob))
    capsys.readouterr()
    rc = main(["decrypt", "--pk", f"{d}/alice.pk", "--sk", f"{d}/alice.sk",
               "--ct", f"{d}/ct-bad"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "reject" in err.lower()


def test_malformed_inputs_exit_two(ring_files, tmp_path, capsys):
    d = ring_files
    garbage = tmp_path / "garbage"
    garbage.write_bytes(b"definitely not a frame")
    cases = [
        ["decrypt", "--pk", f"{d}/alice.pk", "--sk", f"{d}/alice.sk", "--ct", str(garbage)],
        ["decrypt", "--pk", f"{d}/alice.pk", "--sk", f"{d}/alice.sk", "--ct", str(tmp_path / "missing")],
        ["decrypt", "--pk", f"{d}/alice.pk", "--sk", f"{d}/alice.pk", "--ct", f"{d}/ct-a"],
        ["encrypt", "--pk", f"{d}/alice.pk", "--message", "xyz", "--seed", SEED_A, "--out", str(tmp_path / "o")],
        ["encrypt", "--pk", f"{d}/alice.pk", "--message", "abc", "--seed", SEED_A, "--out", str(tmp_path / "o")],
        ["encrypt", "--pk", f"{d}/alice.pk", "--message", "ff" * 9, "--seed", SEED_A, "--out", str(tmp_path / "o")],
        ["keygen", "--scheme", "ring", "--n", "64", "--seed", "nothex",
         "--out-dir", str(tmp_path), "--name", "x"],
        ["keygen", "--scheme", "ring", "--n", "60", "--seed", SEED_A,
         "--out-dir", str(tmp_path), "--name", "x"],
    ]
    for argv in cases:
        assert main(argv) == 2, f"expected exit 2 for {argv}"
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--scheme", "ring", "--profile", "strict", "--security", "100000", "--n", "64"],
    ["--scheme", "int", "--n", str(10**400)],
])
def test_underivable_keygen_exits_two(tmp_path, capsys, argv):
    # Labels and dimensions past the derivable range are refused before any
    # float arithmetic can overflow, so no traceback and no key files.
    out = tmp_path / "keys"
    assert main(["keygen", *argv, "--seed", SEED_A, "--out-dir", str(out), "--name", "x"]) == 2
    assert "must lie in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("record,name,value", _CRAFTED)
def test_crafted_parameter_frame_exits_two(tmp_path, capsys, record, name, value):
    td = tmp_path / "crafted.td"
    td.write_bytes(crafted_frame(record, name, value))
    assert main(["test", "--td-i", str(td), "--td-j", str(td),
                 "--ct-i", str(td), "--ct-j", str(td)]) == 2
    assert "embedded parameters violate invariants" in capsys.readouterr().err


def test_unknown_profile_label_key_exits_two(ring_files, tmp_path, capsys):
    params, pk = serial.decode_object((ring_files / "alice.pk").read_bytes())[2:]
    relabeled = dataclasses.replace(params, profile="foo")
    bad = tmp_path / "foo.pk"
    bad.write_bytes(serial.encode_object(serial.SCHEME_RING, serial.KIND_PK, pk, relabeled))
    assert main(["encrypt", "--pk", str(bad), "--message", "77",
                 "--seed", SEED_A, "--out", str(tmp_path / "ct")]) == 2
    assert "unknown profile 'foo'" in capsys.readouterr().err
    assert not (tmp_path / "ct").exists()


@pytest.mark.parametrize("spelling", RESPELLINGS)
def test_non_canonical_parameter_frame_exits_two(ring_small, tmp_path, capsys, spelling):
    td = tmp_path / "respelled.td"
    td.write_bytes(respelled_frame(ring_small, spelling))
    assert main(["test", "--td-i", str(td), "--td-j", str(td),
                 "--ct-i", str(td), "--ct-j", str(td)]) == 2
    assert "canonical" in capsys.readouterr().err


def test_cross_parameter_files_exit_two(ring_files, tmp_path, capsys):
    d = ring_files
    assert main(["keygen", "--scheme", "ring", "--n", "128", "--seed", SEED_A,
                 "--out-dir", str(tmp_path), "--name", "wide"]) == 0
    assert main(["encrypt", "--pk", f"{d}/alice.pk", "--message", "55",
                 "--seed", SEED_A, "--out", f"{d}/ct-x"]) == 0
    capsys.readouterr()
    rc = main(["decrypt", "--pk", str(tmp_path / "wide.pk"),
               "--sk", str(tmp_path / "wide.sk"), "--ct", f"{d}/ct-x"])
    assert rc == 2


def test_seeded_runs_reproduce_files(tmp_path, capsys):
    for sub in ("r1", "r2"):
        assert main(["keygen", "--scheme", "ring", "--n", "64", "--seed", SEED_B,
                     "--out-dir", str(tmp_path / sub), "--name", "k"]) == 0
    capsys.readouterr()
    assert (tmp_path / "r1" / "k.pk").read_bytes() == (tmp_path / "r2" / "k.pk").read_bytes()
    assert (tmp_path / "r1" / "k.sk").read_bytes() == (tmp_path / "r2" / "k.sk").read_bytes()


def test_unseeded_runs_differ(tmp_path, capsys):
    for sub in ("f1", "f2"):
        assert main(["keygen", "--scheme", "ring", "--n", "64",
                     "--out-dir", str(tmp_path / sub), "--name", "k"]) == 0
    capsys.readouterr()
    assert (tmp_path / "f1" / "k.pk").read_bytes() != (tmp_path / "f2" / "k.pk").read_bytes()


def test_int_scheme_pipeline(tmp_path, capsys):
    d = tmp_path
    assert main(["keygen", "--scheme", "int", "--n", "16", "--seed", SEED_A,
                 "--out-dir", str(d), "--name", "ivan"]) == 0
    assert main(["encrypt", "--pk", f"{d}/ivan.pk", "--message", "cafe0123",
                 "--seed", SEED_A, "--out", f"{d}/ct"]) == 0
    capsys.readouterr()
    assert main(["decrypt", "--pk", f"{d}/ivan.pk", "--sk", f"{d}/ivan.sk",
                 "--ct", f"{d}/ct"]) == 0
    assert capsys.readouterr().out.strip() == "cafe0123"


def test_message_capacity_is_reported(ring_files, capsys):
    d = ring_files
    rc = main(["encrypt", "--pk", f"{d}/alice.pk", "--message", "ff" * 20,
               "--seed", SEED_A, "--out", "/dev/null"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "64" in err   # capacity in bits appears in the diagnostic


@pytest.fixture(scope="module")
def int_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("int-cli")
    for name, seed in (("ivan", SEED_A), ("judy", SEED_B)):
        assert main(["keygen", "--scheme", "int", "--n", "16", "--seed", seed,
                     "--out-dir", str(d), "--name", name]) == 0
    assert main(["encrypt", "--pk", f"{d}/ivan.pk", "--message", "5a",
                 "--seed", SEED_A, "--out", f"{d}/ct"]) == 0
    return d


def test_mismatched_key_exits_two(ring_files, int_files, tmp_path, capsys):
    assert main(["encrypt", "--pk", f"{ring_files}/alice.pk", "--message", "5a",
                 "--seed", SEED_A, "--out", f"{ring_files}/ct-m"]) == 0
    cases = ((ring_files, "alice", "bob", "ct-m"), (int_files, "ivan", "judy", "ct"))
    for d, owner, other, ct in cases:
        ct = f"{d}/{ct}"
        capsys.readouterr()
        assert main(["decrypt", "--pk", f"{d}/{owner}.pk", "--sk", f"{d}/{other}.sk",
                     "--ct", ct]) == 2
        assert "does not belong" in capsys.readouterr().err
        assert main(["trapdoor", "--sk", f"{d}/{other}.sk", "--pk", f"{d}/{owner}.pk",
                     "--out", str(tmp_path / "td")]) == 2
        assert main(["decrypt", "--pk", f"{d}/{owner}.pk", "--sk", f"{d}/{owner}.sk",
                     "--ct", ct]) == 0


def test_non_canonical_ciphertext_exits_two(ring_files, int_files, capsys):
    assert main(["encrypt", "--pk", f"{ring_files}/alice.pk", "--message", "5a",
                 "--seed", SEED_A, "--out", f"{ring_files}/ct-n"]) == 0
    for d, owner, ct in ((ring_files, "alice", "ct-n"), (int_files, "ivan", "ct")):
        blob = (d / ct).read_bytes()
        q = serial.decode_object(blob)[2].q
        last = len(packed_arrays(blob)) - 1
        (d / "ct-plus-q").write_bytes(with_value(blob, last, 0, q))
        capsys.readouterr()
        assert main(["decrypt", "--pk", f"{d}/{owner}.pk", "--sk", f"{d}/{owner}.sk",
                     "--ct", str(d / "ct-plus-q")]) == 2
        assert "canonical range" in capsys.readouterr().err


def _write_party(d, name: str, params) -> None:
    """``name``.pk/.sk/.td/.ct under ``params``, written straight from objects."""
    rng = seeded(f"packed-{name}")
    if isinstance(params, ParamsRing):
        scheme, (pk, sk) = serial.SCHEME_RING, pr.setup(params, rng)
        msg = RingElement(rng.uniform_mod(2, params.n), get_context(params))
        ct, td = pr.encrypt(pk, msg, params, rng), pr.trapdoor(sk, pk)
    else:
        scheme, (pk, sk) = serial.SCHEME_INT, pi.setup_int(params, rng)
        ct = pi.encrypt_int(pk, rng.uniform_mod(2, params.t_msg), params, rng)
        td = pi.trapdoor_int(sk, pk)
    for ext, kind, obj in (("pk", serial.KIND_PK, pk), ("sk", serial.KIND_SK, sk),
                           ("td", serial.KIND_TD, td), ("ct", serial.KIND_CT, ct)):
        (d / f"{name}.{ext}").write_bytes(serial.encode_object(scheme, kind, obj, params))


@pytest.fixture(scope="module")
def packed_files(tmp_path_factory):
    """Ring n=16 files, and integer n=21 files (k=29, m=1218), so the c3, c4
    and u arrays of an integer ciphertext end mid-byte."""
    out = {}
    for scheme, params in (("ring", derive_ring_params(128, 16, "toy")),
                           ("int", derive_int_params(128, 21, "toy"))):
        d = out[scheme] = tmp_path_factory.mktemp(f"packed-{scheme}")
        for name in ("ivan", "judy"):
            _write_party(d, name, params)
    return out


def _faulty(blob: bytes, fault: str) -> bytes:
    if fault in SEED_FAULTS:
        return with_seed_fault(blob, fault)
    q = serial.decode_object(blob)[2].q
    last, count = len(packed_arrays(blob)) - 1, packed_arrays(blob)[-1][1]
    if fault == "pad-bit":
        return with_pad_bit(blob, 2)
    if fault == "residue-q":
        return with_value(blob, last, count - 1, q)
    if fault == "residue-top":
        return with_value(blob, last, count - 1, (1 << q.bit_length()) - 1)
    if fault == "trapdoor-past-bound":
        return with_value(blob, 0, 0, -packed_arrays(blob)[0][2] + 1)
    if fault == "short":
        return with_body_length(blob, -1)
    if fault == "long":
        return with_body_length(blob, 1)
    return with_version(blob, 1)


FAULTS = ["pad-bit", "residue-q", "residue-top", "trapdoor-past-bound", "short", "long", "version-1"]
# Every ring array holds a multiple of n >= 16 values, so it ends on a byte
# boundary and has no pad bits to set.  The seed faults are of the integer
# pk and td layouts only.
FAULT_CASES = [(s, f) for s in ("ring", "int") for f in FAULTS if (s, f) != ("ring", "pad-bit")]
FAULT_CASES += [("int", f) for f in SEED_FAULTS]


@pytest.mark.parametrize("scheme,fault", FAULT_CASES)
def test_malformed_packed_frame_exits_two(packed_files, tmp_path, capsys, scheme, fault):
    d = packed_files[scheme]
    # A trapdoor fault lands in the secret key or the token, a seed fault in
    # the public key or the token, any other in the ciphertext.
    dec_role, test_role = {"trapdoor-past-bound": ("sk", "td"),
                           **dict.fromkeys(SEED_FAULTS, ("pk", "td"))}.get(fault, ("ct", "ct"))
    for role in {dec_role, test_role}:
        (tmp_path / f"bad.{role}").write_bytes(_faulty((d / f"ivan.{role}").read_bytes(), fault))
    files = {ext: str(tmp_path / f"bad.{ext}") if ext in (dec_role, test_role) else f"{d}/ivan.{ext}"
             for ext in ("pk", "sk", "td", "ct")}
    capsys.readouterr()
    assert main(["decrypt", "--pk", files["pk"], "--sk", files["sk"], "--ct", files["ct"]]) == 2
    assert main(["test", "--td-i", files["td"], "--td-j", f"{d}/judy.td",
                 "--ct-i", files["ct"], "--ct-j", f"{d}/judy.ct"]) == 2
    err = capsys.readouterr().err
    assert err.count("error") == 2


def test_unmutated_packed_files_run(packed_files, capsys):
    for d in packed_files.values():
        assert main(["decrypt", "--pk", f"{d}/ivan.pk", "--sk", f"{d}/ivan.sk",
                     "--ct", f"{d}/ivan.ct"]) == 0
        assert main(["test", "--td-i", f"{d}/ivan.td", "--td-j", f"{d}/judy.td",
                     "--ct-i", f"{d}/ivan.ct", "--ct-j", f"{d}/judy.ct"]) == 1
    capsys.readouterr()


def test_unknown_selftest_criterion_exits_two(capsys):
    assert main(["selftest", "--criteria", "9"]) == 2
    assert "unknown criteria [9]" in capsys.readouterr().err



@pytest.mark.parametrize("command", ["keygen", "encrypt", "trapdoor"])
def test_unwritable_output_exits_two(ring_files, tmp_path, capsys, command):
    # A path under a regular file can be neither created nor written.
    d = ring_files
    blocked = tmp_path / "file"
    blocked.write_bytes(b"")
    argv = {
        "keygen": ["keygen", "--scheme", "ring", "--n", "64", "--seed", SEED_A,
                   "--out-dir", str(blocked / "keys")],
        "encrypt": ["encrypt", "--pk", f"{d}/alice.pk", "--message", "01",
                    "--seed", SEED_A, "--out", str(blocked / "ct")],
        "trapdoor": ["trapdoor", "--sk", f"{d}/alice.sk", "--pk", f"{d}/alice.pk",
                     "--out", str(blocked / "td")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot ")


def test_keygen_sk_write_failure_leaves_no_public_key(tmp_path, capsys):
    # The public key is written first; when the secret key cannot be
    # written, the orphan public key must not stay behind.
    (tmp_path / "alice.sk").mkdir()
    capsys.readouterr()
    assert main(["keygen", "--scheme", "ring", "--n", "64", "--seed", SEED_A,
                 "--out-dir", str(tmp_path), "--name", "alice"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot ")
    assert not (tmp_path / "alice.pk").exists()
