import re

import numpy as np
import pytest

from hespinor import cli, clifford, verify


def test_gamma0_is_diag_1_1_m1_m1():
    assert np.array_equal(clifford.GAMMA[0], np.diag([1, 1, -1, -1]).astype(complex))


def test_gamma5_has_identity_off_diagonal_blocks():
    g5 = clifford.GAMMA[5]
    expected = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 2), (1, 3), (2, 0), (3, 1)):
        expected[i, j] = 1
    assert np.array_equal(g5, expected)


@pytest.mark.parametrize("idx", clifford.GAMMA_INDICES)
def test_every_gamma_squares_to_identity_exactly(idx):
    g = clifford.GAMMA[idx]
    assert np.array_equal(g @ g, np.eye(4, dtype=complex))


def test_pairwise_anticommutation_exact():
    for i, mu in enumerate(clifford.GAMMA_INDICES):
        for nu in clifford.GAMMA_INDICES[i + 1:]:
            g_mu, g_nu = clifford.GAMMA[mu], clifford.GAMMA[nu]
            ac = g_mu @ g_nu + g_nu @ g_mu
            assert np.array_equal(ac, np.zeros((4, 4), dtype=complex)), (mu, nu)


@pytest.mark.parametrize("idx", clifford.GAMMA_INDICES)
def test_unitarity_exact(idx):
    g = clifford.GAMMA[idx]
    assert np.array_equal(g @ g.conj().T, np.eye(4, dtype=complex))


def test_gamma5_equals_minus_product_of_other_four():
    prod = clifford.GAMMA[0] @ clifford.GAMMA[1] @ clifford.GAMMA[2] @ clifford.GAMMA[3]
    assert np.array_equal(clifford.GAMMA[5], -prod)
    # the often-quoted -1j prefactor does not reproduce gamma(5) for this
    # block convention; the measured phase is exactly -1
    assert not np.array_equal(clifford.GAMMA[5], -1j * prod)


def test_alpha_z_tables():
    assert np.array_equal(clifford.ALPHA_Z[1], np.diag([-1.0, 1.0, 1.0, -1.0]).astype(complex))
    assert np.array_equal(clifford.ALPHA_Z[2], np.diag([-1.0, 1.0, -1.0, 1.0]).astype(complex))


def test_alpha_z_product_identities():
    # electron 1 uses the literal order -i g5 g3; the electron-2 block
    # matrix requires the reversed order -i g2 g1
    assert np.array_equal(clifford.ALPHA_Z[1], -1j * clifford.GAMMA[5] @ clifford.GAMMA[3])
    assert np.array_equal(clifford.ALPHA_Z[2], -1j * clifford.GAMMA[2] @ clifford.GAMMA[1])


def test_alpha_z_square_and_commute():
    a1, a2 = clifford.ALPHA_Z[1], clifford.ALPHA_Z[2]
    eye = np.eye(4, dtype=complex)
    assert np.array_equal(a1 @ a1, eye)
    assert np.array_equal(a2 @ a2, eye)
    assert np.array_equal(a1 @ a2, a2 @ a1)


def test_spin_shift_matrix():
    assert np.array_equal(clifford.SPIN_SHIFT, np.diag([-1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("table", [clifford.GAMMA[0], clifford.ALPHA_Z[1], clifford.SPIN_SHIFT])
def test_shared_tables_are_read_only(table):
    # every layer reads these very arrays, so a write would reach them all;
    # writing the entry's own value leaves them intact if the guard is missing
    with pytest.raises(ValueError):
        table[0, 0] = table[0, 0]


def anticommutation_check():
    return {r.name: r for r in verify.clifford_checks()}["clifford anticommutation, 15 pairs"]


def test_verify_clifford_all_pairs_exact():
    check = anticommutation_check()
    assert check.passed
    assert check.value == 0.0
    assert check.note == "worst pair (0,0)"  # a tie names the first pair in table order


def test_verify_clifford_fault_injection_names_pair(monkeypatch, capsys):
    bad = clifford.GAMMA[1].copy()
    bad[0, 3] = -bad[0, 3]
    monkeypatch.setitem(clifford.GAMMA, 1, bad)
    check = anticommutation_check()
    assert not check.passed
    assert check.value > 0.5
    pair = re.fullmatch(r"worst pair \((\d),(\d)\)", check.note)
    assert pair is not None and "1" in pair.groups()
    assert cli.main(["verify"]) == 1
    assert "[FAIL] clifford anticommutation, 15 pairs" in capsys.readouterr().out
