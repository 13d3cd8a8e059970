"""Tests for the dense linear-algebra substrate."""

import numpy as np
import pytest

from fidest.linalg import DensityMatrix, require_unitary, unitarity_error, zero_state
from fidest.reference import herm_eig, partial_trace

from conftest import random_hermitian

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestPartialTrace:
    def test_product_state(self):
        rho = np.outer(zero_state(2), zero_state(2).conj())
        reduced = partial_trace(rho, [2, 2], keep=[0])
        assert np.allclose(reduced, [[1, 0], [0, 0]])

    def test_maximally_entangled(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        reduced = partial_trace(np.outer(bell, bell.conj()), [2, 2], keep=[0])
        assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_three_register_state(self, seed):
        # oracle: eigenvalues of the reduced matrix must be a distribution
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(2 * 4 * 2) + 1j * rng.standard_normal(2 * 4 * 2)
        psi /= np.linalg.norm(psi)
        reduced = partial_trace(np.outer(psi, psi.conj()), [2, 4, 2], keep=[0, 2])
        w = np.linalg.eigvalsh(reduced)
        assert abs(np.trace(reduced) - 1.0) <= 1e-10
        assert w[0] >= -1e-10

    def test_trace_all_subsystems_gives_scalar_trace(self):
        rng = np.random.default_rng(9)
        mat = random_hermitian(rng, 8)
        out = partial_trace(mat, [2, 2, 2], keep=[])
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - np.trace(mat)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            partial_trace(np.eye(4), [2, 4], keep=[0])

    def test_bad_keep_index(self):
        with pytest.raises(ValueError, match="keep indices"):
            partial_trace(np.eye(4), [2, 2], keep=[2])


class TestHermEig:
    def test_identity_spectrum(self):
        w, _ = herm_eig(I2)
        assert np.allclose(w, [1, 1])

    def test_pauli_z_spectrum(self):
        w, _ = herm_eig(Z)
        assert np.allclose(w, [-1, 1])

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        mat = random_hermitian(rng, 8)
        w, v = herm_eig(mat)
        assert np.max(np.abs((v * w) @ v.conj().T - mat)) <= 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_density_matrix_eigenvalues_sum_to_one(self):
        from conftest import mixed_instance

        dm, _ = mixed_instance(2, 3, 17)
        w, _ = herm_eig(dm.matrix)
        assert abs(np.sum(w) - 1.0) <= 1e-10


class TestDensityMatrix:
    def test_valid(self):
        dm = DensityMatrix(np.eye(2) / 2)
        assert dm.dim == 2 and dm.num_qubits == 1
        assert abs(dm.purity() - 0.5) <= 1e-12
        # dim 1 = 2^0 sits on the power-of-two check's lower edge
        dm = DensityMatrix([[1.0]])
        assert dm.dim == 1 and dm.num_qubits == 0

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            DensityMatrix(np.eye(3) / 3)

    @pytest.mark.parametrize("matrix", [np.ones((2, 4)) / 2, np.ones(4) / 4])
    def test_rejects_non_square(self, matrix):
        with pytest.raises(ValueError, match="must be square"):
            DensityMatrix(matrix)

    def test_is_pure(self):
        assert DensityMatrix(np.diag([1.0, 0.0])).is_pure()
        assert not DensityMatrix(np.eye(2) / 2).is_pure()

    def test_matrix_is_immutable(self):
        dm = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 2.0


def test_zero_state_rejects_negative_qubits():
    with pytest.raises(ValueError, match="num_qubits must be non-negative"):
        zero_state(-1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal pair"])
class TestNonFiniteEntries:
    """A NaN or infinite entry fails every structural check, not only a finite deviation."""

    @staticmethod
    def matrix(bad, where, scale=0.5):
        mat = scale * np.eye(2, dtype=complex)
        if where == "diagonal":
            mat[1, 1] = bad
        else:
            mat[0, 1] = mat[1, 0] = bad
        return mat

    def test_density_matrix(self, bad, where):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(self.matrix(bad, where))

    def test_herm_eig(self, bad, where):
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eig(self.matrix(bad, where))

    def test_require_unitary(self, bad, where):
        with pytest.raises(ValueError, match="not unitary"):
            require_unitary(self.matrix(bad, where, scale=1.0))


def test_overflowing_entries_fail_without_a_warning():
    # the deviation overflows to inf, which the checks reject like a NaN
    skew = np.array([[0.5, 1e308], [-1e308, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(skew)
    with pytest.raises(ValueError, match="Hermitian"):
        herm_eig(skew)
    with pytest.raises(ValueError, match="not unitary"):
        require_unitary(1e200 * np.eye(2))


def test_unitarity_error_flags_non_unitary():
    assert unitarity_error(np.eye(3)) <= 1e-15
    assert unitarity_error(2 * np.eye(2)) > 1.0
