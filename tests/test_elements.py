import numpy as np
import pytest

from hybridoam.budget import RateBudget
from hybridoam.elements import (
    DETERMINISTIC,
    FILTER,
    PROBABILISTIC,
    UNITARY,
    DomainError,
    OpticalMap,
    apply,
    half_waveplate,
    polarizer,
    qplate,
    quarter_waveplate,
    smf_filter,
    success_probability,
    transferrer_o2_to_pi,
    transferrer_pi_to_o2,
)
from hybridoam.states import (
    ATOL,
    OAM_FULL,
    POLARIZATION,
    StateVector,
    basis_ket,
    density_from_ket,
    tensor,
)

S2 = np.sqrt(2.0)

# oam_full ordering (|0>, |+2>, |-2>)
KET0 = np.array([1.0, 0, 0], dtype=complex)
KETP2 = np.array([0, 1.0, 0], dtype=complex)
KETM2 = np.array([0, 0, 1.0], dtype=complex)
H = np.array([1.0, 0], dtype=complex)
V = np.array([0, 1.0], dtype=complex)
L = np.array([1.0, 1.0j], dtype=complex) / S2
R = np.array([1.0, -1.0j], dtype=complex) / S2


def full_state(pol, oam):
    return StateVector(np.kron(pol, oam), (POLARIZATION, OAM_FULL))


def test_qplate_circular_basis_action():
    u = qplate().matrix
    # spin-orbit coupling: circular polarization flips, OAM picks up +-2
    cases = [
        (np.kron(L, KET0), np.kron(R, KETP2)),
        (np.kron(R, KET0), np.kron(L, KETM2)),
        (np.kron(R, KETP2), np.kron(L, KET0)),
        (np.kron(L, KETM2), np.kron(R, KET0)),
        (np.kron(L, KETP2), np.kron(L, KETP2)),
        (np.kron(R, KETM2), np.kron(R, KETM2)),
    ]
    for src, dst in cases:
        assert np.max(np.abs(u @ src - dst)) < ATOL
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < ATOL


def test_qplate_rejects_o2_input_m0_component():
    qp = qplate()
    out = apply(qp, full_state(L, KET0))  # lands on |R, +2>
    with pytest.raises(DomainError):
        apply(qp, out)  # o2 support is outside the plate's domain
    with pytest.raises(ValueError):
        qplate(q=2)


def test_forward_transferrer_probabilistic():
    fwd = transferrer_pi_to_o2()
    alpha, beta = 0.6, 0.8j
    psi = full_state(alpha * H + beta * V, KET0)
    out = apply(fwd, psi)
    assert out.unnormalized
    p = out.norm_squared()
    assert abs(p - 0.5) < ATOL
    h_o2 = (KETP2 + KETM2) / S2
    v_o2 = (KETP2 - KETM2) / S2
    want = np.kron(H, alpha * h_o2 + beta * v_o2)
    assert np.max(np.abs(out.amplitudes / np.sqrt(p) - want)) < 1e-10


def test_forward_transferrer_deterministic_unit_success():
    fwd = transferrer_pi_to_o2(DETERMINISTIC)
    out = apply(fwd, full_state(L, KET0))
    assert abs(out.norm_squared() - 1.0) < ATOL
    assert abs(success_probability(fwd, full_state(V, KET0)) - 1.0) < ATOL


def test_backward_transferrer_inverts_forward():
    fwd = transferrer_pi_to_o2(DETERMINISTIC)
    back = transferrer_o2_to_pi(DETERMINISTIC)
    alpha, beta = 1 / S2, np.exp(0.73j) / S2
    psi = full_state(alpha * H + beta * V, KET0)
    out = apply(back, apply(fwd, psi))
    assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-10


def test_backward_transferrer_plus2_reads_out_diagonal():
    back = transferrer_o2_to_pi()
    out = apply(back, full_state(H, KETP2))
    p = out.norm_squared()
    assert abs(p - 0.5) < ATOL
    want = np.kron((H + V) / S2, KET0)
    assert np.max(np.abs(out.amplitudes / np.sqrt(p) - want)) < 1e-10
    # defined only on H polarization in the o2 span
    with pytest.raises(DomainError):
        apply(back, full_state(V, KETP2))
    with pytest.raises(DomainError):
        apply(back, full_state(H, KET0))


def test_half_waveplate_matrix_and_actions():
    hwp = half_waveplate(np.pi / 8)
    out = apply(hwp, basis_ket("H"))
    assert np.max(np.abs(out.amplitudes - (H + V) / S2)) < ATOL
    out_v = apply(half_waveplate(0.0), basis_ket("V"))
    assert np.max(np.abs(out_v.amplitudes + V)) < ATOL
    c, s = np.cos(2 * 0.3), np.sin(2 * 0.3)
    assert np.allclose(half_waveplate(0.3).matrix, [[c, s], [s, -c]], atol=ATOL)


def test_quarter_waveplate_makes_circular_light():
    out = apply(quarter_waveplate(np.pi / 4), basis_ket("H"))
    overlap = np.vdot(L, out.amplitudes)
    assert abs(abs(overlap) - 1.0) < ATOL
    assert abs(overlap - np.exp(-1j * np.pi / 4)) < ATOL
    assert np.allclose(quarter_waveplate(0.0).matrix, np.diag([1, -1j]), atol=ATOL)


def test_smf_filter_transmits_only_fundamental_mode():
    smf = smf_filter()
    s0 = StateVector(KET0, (OAM_FULL,))
    sp = StateVector(KETP2, (OAM_FULL,))
    mix = StateVector((KET0 + KETP2) / S2, (OAM_FULL,))
    assert abs(success_probability(smf, s0) - 1.0) < ATOL
    assert success_probability(smf, sp) < ATOL
    assert abs(success_probability(smf, mix) - 0.5) < ATOL


def test_polarizer_projects():
    pol = polarizer("+")
    assert abs(success_probability(pol, basis_ket("+")) - 1.0) < ATOL
    assert success_probability(pol, basis_ket("-")) < ATOL
    assert abs(success_probability(pol, basis_ket("H")) - 0.5) < ATOL
    with pytest.raises(ValueError):
        polarizer("+2")


def test_apply_respects_factor_layout():
    # HWP on factor 0 of a two-factor state leaves the OAM factor alone
    hwp = half_waveplate(np.pi / 8, acts_on=(0,))
    psi = tensor(basis_ket("H"), basis_ket("+2"))
    out = apply(hwp, psi)
    want = np.kron((H + V) / S2, [1, 0])
    assert np.max(np.abs(out.amplitudes - want)) < ATOL
    with pytest.raises(ValueError):
        apply(qplate(), psi)  # factor kinds do not match


def test_apply_density_matrix_filter_flags_unnormalized():
    smf = smf_filter()
    rho = density_from_ket(StateVector((KET0 + KETP2) / S2, (OAM_FULL,)))
    out = apply(smf, rho)
    assert out.unnormalized
    assert abs(out.trace() - 0.5) < ATOL
    assert abs(success_probability(smf, rho) - 0.5) < ATOL


def test_optical_map_validation():
    with pytest.raises(ValueError):
        OpticalMap(UNITARY, np.array([[1, 1], [0, 1]]), (0,), (POLARIZATION,), "bad")
    with pytest.raises(ValueError):
        OpticalMap("lens", np.eye(2), (0,), (POLARIZATION,), "bad")
    with pytest.raises(ValueError):
        OpticalMap(FILTER, np.eye(3), (0,), (POLARIZATION,), "bad shape")
    with pytest.raises(ValueError):
        OpticalMap(
            FILTER, np.eye(6), (0, 2), (POLARIZATION, OAM_FULL), "gap in acts_on"
        )


def test_probabilistic_and_deterministic_modes_share_the_conditional_map():
    psi = full_state(0.28 * H + np.sqrt(1 - 0.28 ** 2) * V, KET0)
    a = apply(transferrer_pi_to_o2(PROBABILISTIC), psi)
    b = apply(transferrer_pi_to_o2(DETERMINISTIC), psi)
    assert np.max(np.abs(S2 * a.amplitudes - b.amplitudes)) < ATOL
    with pytest.raises(ValueError):
        transferrer_pi_to_o2("heralded")


def test_detection_chain_realizes_the_ideal_analyzers():
    # Bob's lab analyzer is the o2->pi transferrer followed by a polarizer.
    # On the o2 qubit (|H> x span{|+2>, |-2>}) its effective POVM element is
    # the ideal projector the tomography model uses, times the detection
    # transfer efficiency of the rate budget.
    back = transferrer_o2_to_pi().matrix
    embed = np.kron(H[:, None], np.eye(3)[:, 1:])
    analyzer = {"+2": "+", "-2": "-", "h": "H", "v": "V", "a": "R", "d": "L"}
    eff = RateBudget().transfer_det_eff
    for bob, pol in analyzer.items():
        detect = back.conj().T @ np.kron(polarizer(pol).matrix, np.eye(3)) @ back
        povm = embed.conj().T @ detect @ embed
        ket = basis_ket(bob).amplitudes
        assert np.max(np.abs(povm - eff * np.outer(ket, ket.conj()))) < ATOL
