import numpy as np
import pytest

from hybridoam.states import (
    ATOL,
    DegenerateInputError,
    DensityMatrix,
    InvalidLabelError,
    OAM_O2,
    POLARIZATION,
    StateVector,
    basis_ket,
    matrix_from_json,
    matrix_to_json,
    project_to_physical,
)

S2 = np.sqrt(2.0)


def test_circular_polarization_convention():
    # |L> = (|H>+i|V>)/sqrt2, |R> = (|H>-i|V>)/sqrt2
    L = basis_ket("L").amplitudes
    R = basis_ket("R").amplitudes
    assert np.allclose(L, np.array([1.0, 1.0j]) / S2, atol=ATOL)
    assert np.allclose(R, np.array([1.0, -1.0j]) / S2, atol=ATOL)
    assert abs(np.vdot(L, R)) < ATOL


def test_o2_superposition_kets():
    h = basis_ket("h").amplitudes
    v = basis_ket("v").amplitudes
    a = basis_ket("a").amplitudes
    d = basis_ket("d").amplitudes
    assert np.allclose(h, np.array([1.0, 1.0]) / S2, atol=ATOL)
    assert np.allclose(v, np.array([1.0, -1.0]) / S2, atol=ATOL)
    # a and d keep their defining global phases
    assert np.allclose(a, np.exp(-1j * np.pi / 4) * np.array([1.0, 1.0j]) / S2, atol=ATOL)
    assert np.allclose(d, np.exp(+1j * np.pi / 4) * np.array([1.0, -1.0j]) / S2, atol=ATOL)
    for x, y in ((h, v), (a, d)):
        assert abs(np.vdot(x, y)) < ATOL


def test_label_resolution_and_errors():
    assert basis_ket("+2").basis == (OAM_O2,)
    assert basis_ket("H").basis == (POLARIZATION,)
    with pytest.raises(InvalidLabelError):
        basis_ket("X")
    with pytest.raises(InvalidLabelError):
        basis_ket("0")  # the fundamental mode is not a basis state here
    # labels are unique across the two degrees: "h" is the OAM state
    assert basis_ket("h").basis == (OAM_O2,)
    with pytest.raises(InvalidLabelError):
        basis_ket("spin")


def test_state_vector_normalization_guard():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), (POLARIZATION,))
    sv = StateVector(np.array([1.0, 1.0]) / S2, (POLARIZATION,))
    assert abs(sv.norm_squared() - 1.0) < ATOL
    with pytest.raises(ValueError):
        StateVector(np.ones(3), (POLARIZATION,))  # dim mismatch


def test_density_matrix_guards():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]), (POLARIZATION,))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), (POLARIZATION,))  # trace 2
    neg = np.diag([1.5, -0.5])
    with pytest.raises(ValueError):
        DensityMatrix(neg, (POLARIZATION,))
    dm = DensityMatrix(neg, (POLARIZATION,), require_positive=False)
    assert abs(dm.trace() - 1.0) < ATOL
    mixed = DensityMatrix(np.eye(2) / 2, (POLARIZATION,))
    assert abs(mixed.purity() - 0.5) < ATOL


def test_project_to_physical_clamps_and_renormalizes():
    raw = np.diag([0.8, 0.4, -0.1, -0.1])
    fixed = project_to_physical(raw)
    w = np.linalg.eigvalsh(fixed.matrix)
    assert w[0] >= -ATOL
    assert abs(fixed.trace() - 1.0) < ATOL
    assert np.allclose(np.diag(fixed.matrix).real, [2 / 3, 1 / 3, 0, 0], atol=ATOL)
    # idempotent on already physical input
    again = project_to_physical(fixed)
    assert np.max(np.abs(again.matrix - fixed.matrix)) < ATOL


def test_project_to_physical_degenerate_input():
    with pytest.raises(DegenerateInputError):
        project_to_physical(np.diag([-1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        project_to_physical(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian


def test_json_roundtrip_preserves_matrix_and_basis():
    amp = np.array([1, 1j, -1, -1j]) / 2
    rho = DensityMatrix(np.outer(amp, amp.conj()), (POLARIZATION, OAM_O2))
    back = matrix_from_json(matrix_to_json(rho))
    assert back.basis == rho.basis
    assert np.max(np.abs(back.matrix - rho.matrix)) < ATOL


def test_unknown_factor_names_are_refused():
    with pytest.raises(InvalidLabelError, match="'foo'"):
        StateVector([1, 0], ("foo",))
    with pytest.raises(InvalidLabelError, match="'foo'"):
        DensityMatrix(np.eye(2) / 2, ("foo",))
    with pytest.raises(InvalidLabelError, match="'oam_full'"):
        StateVector(np.array([1.0, 0, 0]), ("oam_full",))
    data = matrix_to_json(DensityMatrix(np.eye(2) / 2, (POLARIZATION,)))
    with pytest.raises(InvalidLabelError, match="'oam'"):
        matrix_from_json({**data, "basis": ["oam"]})
