"""The README's library example runs as written, its frame-size table
matches real frames, and its CLI table matches the parser."""

import argparse
import re
from pathlib import Path

import pytest

from pkeet import pkeet_int as pi
from pkeet import pkeet_ring as pr
from pkeet import cli, serial
from pkeet.params import derive_int_params, derive_ring_params
from pkeet.ring import RingElement, get_context
from conftest import seeded

README = Path(__file__).resolve().parents[1] / "README.md"
KINDS = (serial.KIND_PK, serial.KIND_SK, serial.KIND_CT, serial.KIND_TD)


def test_library_use_example_runs():
    # The first python block after the "## Library use" heading.
    text = README.read_text()
    section = text[text.index("\n## Library use\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md: Library use", "exec"), {})


def _table_sizes(label: str, version: int) -> list[int]:
    """The pk, sk, ct and td sizes of the README table row for ``label`` at ``version``."""
    row = re.search(rf"^\| {label} \| {version} \| (.*) \|$", README.read_text(), re.MULTILINE)
    return [int(cell.replace(",", "")) for cell in row.group(1).split(" | ")]


def _ring_objects(params):
    rng = seeded("readme-sizes-ring")
    pk, sk = pr.setup(params, rng)
    ct = pr.encrypt(pk, RingElement(rng.uniform_mod(2, params.n), get_context(params)), params, rng)
    return pk, sk, ct, pr.trapdoor(sk, pk)


def _int_objects(params):
    rng = seeded("readme-sizes-int")
    pk, sk = pi.setup_int(params, rng)
    ct = pi.encrypt_int(pk, rng.uniform_mod(2, params.t_msg), params, rng)
    return pk, sk, ct, pi.trapdoor_int(sk, pk)


@pytest.mark.parametrize("label,scheme,params,objects", [
    ("ring n=256 toy", serial.SCHEME_RING, derive_ring_params(128, 256, "toy"), _ring_objects),
    ("integer n=16 toy", serial.SCHEME_INT, derive_int_params(128, 16, "toy"), _int_objects),
], ids=["ring-n256", "int-n16"])
def test_frame_size_table_matches_frames(label, scheme, params, objects):
    sizes = [len(serial.encode_object(scheme, kind, obj, params))
             for kind, obj in zip(KINDS, objects(params))]
    assert sizes == _table_sizes(label, serial.VERSIONS[scheme])


def test_cli_table_matches_parser():
    # One row per subcommand, listing exactly its options in parser order.
    text = README.read_text()
    table = text[text.index("Subcommands and their flags:"):text.index("Exit codes:")]
    rows = {
        command: re.findall(r"`(--[\w-]+)", flags)
        for command, flags in re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.MULTILINE)
    }
    parser = cli.build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        command: [s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")]
        for command, sub in subparsers.choices.items()
    }
    assert rows == options
