import numpy as np
import pytest

from hespinor import clifford


def test_gamma0_is_diag_1_1_m1_m1():
    assert np.array_equal(clifford.gamma(0), np.diag([1, 1, -1, -1]).astype(complex))


def test_gamma5_has_identity_off_diagonal_blocks():
    g5 = clifford.gamma(5)
    expected = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 2), (1, 3), (2, 0), (3, 1)):
        expected[i, j] = 1
    assert np.array_equal(g5, expected)


def test_invalid_index_rejected():
    with pytest.raises(ValueError):
        clifford.gamma(4)


@pytest.mark.parametrize("idx", clifford.GAMMA_INDICES)
def test_every_gamma_squares_to_identity_exactly(idx):
    g = clifford.gamma(idx)
    assert np.array_equal(g @ g, np.eye(4, dtype=complex))


def test_pairwise_anticommutation_exact():
    for i, mu in enumerate(clifford.GAMMA_INDICES):
        for nu in clifford.GAMMA_INDICES[i + 1:]:
            ac = clifford.anticommutator(clifford.gamma(mu), clifford.gamma(nu))
            assert np.array_equal(ac, np.zeros((4, 4), dtype=complex)), (mu, nu)


@pytest.mark.parametrize("idx", clifford.GAMMA_INDICES)
def test_unitarity_exact(idx):
    g = clifford.gamma(idx)
    assert np.array_equal(g @ g.conj().T, np.eye(4, dtype=complex))


def test_gamma5_equals_minus_product_of_other_four():
    prod = clifford.gamma(0) @ clifford.gamma(1) @ clifford.gamma(2) @ clifford.gamma(3)
    assert np.array_equal(clifford.gamma(5), -prod)
    # the often-quoted -1j prefactor does not reproduce gamma(5) for this
    # block convention; the measured phase is exactly -1
    assert not np.array_equal(clifford.gamma(5), -1j * prod)


def test_anticommutator_same_index_gives_twice_identity():
    ac = clifford.anticommutator(clifford.gamma(0), clifford.gamma(0))
    assert np.array_equal(ac, 2 * np.eye(4, dtype=complex))


def test_anticommutator_distinct_indices_vanishes():
    ac = clifford.anticommutator(clifford.gamma(1), clifford.gamma(3))
    assert np.array_equal(ac, np.zeros((4, 4), dtype=complex))


def test_anticommutator_identity_case():
    eye = np.eye(4, dtype=complex)
    assert np.array_equal(clifford.anticommutator(eye, eye), 2 * eye)


def test_alpha_z_tables():
    assert np.array_equal(clifford.alpha_z(1), np.diag([-1.0, 1.0, 1.0, -1.0]).astype(complex))
    assert np.array_equal(clifford.alpha_z(2), np.diag([-1.0, 1.0, -1.0, 1.0]).astype(complex))


def test_alpha_z_product_identities():
    # electron 1 uses the literal order -i g5 g3; the electron-2 block
    # matrix requires the reversed order -i g2 g1
    assert np.array_equal(clifford.alpha_z(1), -1j * clifford.gamma(5) @ clifford.gamma(3))
    assert np.array_equal(clifford.alpha_z(2), -1j * clifford.gamma(2) @ clifford.gamma(1))


def test_alpha_z_square_and_commute():
    a1, a2 = clifford.alpha_z(1), clifford.alpha_z(2)
    eye = np.eye(4, dtype=complex)
    assert np.array_equal(a1 @ a1, eye)
    assert np.array_equal(a2 @ a2, eye)
    assert np.array_equal(a1 @ a2, a2 @ a1)


def test_spin_shift_matrix():
    assert np.array_equal(clifford.spin_shift_matrix(), np.diag([-1.0, 1.0, 0.0, 0.0]))


def test_alpha_z_invalid_label():
    with pytest.raises(ValueError):
        clifford.alpha_z(3)


def test_verify_clifford_all_pairs_exact():
    report = clifford.verify_clifford(1e-14)
    assert report.passed
    assert len(report.rows) == 15
    assert all(dev == 0.0 for _, _, dev in report.rows)


def test_verify_clifford_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        clifford.verify_clifford(0.0)


def test_verify_clifford_fault_injection_names_pair(monkeypatch):
    bad = clifford.gamma(1)
    bad[0, 3] = -bad[0, 3]
    monkeypatch.setitem(clifford._GAMMA_TABLES, 1, bad)
    report = clifford.verify_clifford(1e-14)
    assert not report.passed
    mu, nu, dev = report.worst()
    assert dev > 0.5
    assert 1 in (mu, nu)
