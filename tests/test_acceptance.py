"""Top-level acceptance gate: one test per shipped criterion.

Each test prints a single machine-scannable line of the form

    PASS criterion N: <name> -- <detail> (X.Xs)

and fails the build if the criterion does not hold.
"""

import pytest

from pkeet import acceptance


def _run(number: int) -> None:
    result = acceptance.run_all(criteria=[number])[0]
    verdict = "PASS" if result.passed else "FAIL"
    print(
        f"\n{verdict} criterion {result.number}: {result.name} -- "
        f"{result.detail} ({result.seconds:.1f}s)"
    )
    assert result.passed, f"criterion {result.number} failed: {result.detail}"


def test_criterion_1_ring_round_trip():
    _run(1)


def test_criterion_2_equality_test_truth_table():
    _run(2)


def test_criterion_3_tamper_rejection():
    _run(3)


def test_criterion_4_exact_algebraic_gates():
    _run(4)


def test_criterion_5_oracle_equivalence():
    _run(5)


def test_criterion_6_sampler_statistics():
    _run(6)


def test_criterion_7_integer_round_trip():
    _run(7)


def test_criterion_8_determinism_and_frozen_vectors():
    _run(8)


@pytest.mark.parametrize("number", [3, 4, 7])
def test_integer_criteria_follow_profile(monkeypatch, number):
    # The stub stops the criterion before any integer key is generated.
    seen = []

    class Stop(Exception):
        pass

    def derive(lambda_sec, n, profile):
        seen.append(profile)
        raise Stop

    monkeypatch.setattr(acceptance, "derive_int_params", derive)
    with pytest.raises(Stop):
        acceptance.run_all("strict", [number])
    assert seen == ["strict"]


def test_noise_rejection_is_a_failure_not_an_error(monkeypatch, capsys):
    # A decrypt that refuses an honest ciphertext's noise fails criterion 7,
    # and the self-test prints a FAIL line and exits 1, not 2.
    from pkeet import cli
    from pkeet.errors import RejectNoise

    def refuse(*args):
        raise RejectNoise("refused for the test")

    monkeypatch.setattr(acceptance.pi, "decrypt_int", refuse)
    result = acceptance.criterion_7()
    assert not result.passed and result.detail.startswith("0/50")
    assert cli.main(["selftest", "--criteria", "7"]) == 1
    assert "FAIL  criterion 7" in capsys.readouterr().out
