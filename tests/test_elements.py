"""The element-by-element transfer chain of ``chain_oracle``: each element's
action, and its tie to the rate budget's detection efficiency; and the
waveplates behind the analyzers' conventions."""

import numpy as np

from chain_oracle import (
    H,
    H_O2,
    KET0,
    KETM2,
    KETP2,
    L,
    QPLATE,
    R,
    S2,
    SMF,
    V,
    V_O2,
    backward,
    forward,
)
from hybridoam.budget import RateBudget
from hybridoam.measurement import fringe_scan_records
from hybridoam.source import DETERMINISTIC, PROBABILISTIC, hybrid_singlet
from hybridoam.states import ATOL, basis_ket


def half_waveplate(t):
    """Half waveplate at fast-axis angle t from H, global phase dropped."""
    c, s = np.cos(2 * t), np.sin(2 * t)
    return np.array([[c, s], [s, -c]], dtype=complex)


def quarter_waveplate(t):
    """Quarter waveplate at fast-axis angle t from H."""
    c, s = np.cos(t), np.sin(t)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([1.0, -1.0j]) @ rot.T


def test_qplate_circular_basis_action():
    # spin-orbit coupling: circular polarization flips, OAM picks up +-2;
    # in the linear basis, |H,0> splits evenly onto |R,+2> and |L,-2>
    cases = [
        (np.kron(H, KET0), (np.kron(R, KETP2) + np.kron(L, KETM2)) / S2),
        (np.kron(V, KET0), (np.kron(R, KETP2) - np.kron(L, KETM2)) / (1j * S2)),
        (np.kron(R, KETP2), np.kron(L, KET0)),
        (np.kron(L, KETM2), np.kron(R, KET0)),
    ]
    for src, dst in cases:
        assert np.max(np.abs(QPLATE @ src - dst)) < ATOL
    assert np.max(np.abs(QPLATE.conj().T @ QPLATE - np.eye(6))) < ATOL
    # a second pass returns fundamental-mode light to the fundamental mode
    fund = np.kron(np.eye(2), np.outer(KET0, KET0))
    assert np.max(np.abs(fund @ QPLATE @ QPLATE @ fund - fund)) < ATOL


def test_forward_transferrer_probabilistic():
    alpha, beta = 0.6, 0.8j
    out = forward(PROBABILISTIC) @ np.kron(alpha * H + beta * V, KET0)
    p = np.vdot(out, out).real
    assert abs(p - 0.5) < ATOL
    want = np.kron(H, alpha * H_O2 + beta * V_O2)
    assert np.max(np.abs(out / np.sqrt(p) - want)) < 1e-10


def test_forward_transferrer_deterministic_unit_success():
    fwd = forward(DETERMINISTIC)
    for pol in (L, V):
        out = fwd @ np.kron(pol, KET0)
        assert abs(np.vdot(out, out).real - 1.0) < ATOL


def test_backward_transferrer_inverts_forward():
    psi = np.kron((H + np.exp(0.73j) * V) / S2, KET0)
    out = backward(DETERMINISTIC) @ forward(DETERMINISTIC) @ psi
    assert np.max(np.abs(out - psi)) < 1e-10


def test_backward_transferrer_plus2_reads_out_diagonal():
    out = backward(PROBABILISTIC) @ np.kron(H, KETP2)
    p = np.vdot(out, out).real
    assert abs(p - 0.5) < ATOL
    want = np.kron((H + V) / S2, KET0)
    assert np.max(np.abs(out / np.sqrt(p) - want)) < 1e-10


def test_smf_filter_transmits_only_fundamental_mode():
    for ket, p in ((KET0, 1.0), (KETP2, 0.0), ((KET0 + KETP2) / S2, 0.5)):
        out = SMF @ ket
        assert abs(np.vdot(out, out).real - p) < ATOL


def test_probabilistic_and_deterministic_modes_share_the_conditional_map():
    psi = np.kron(0.28 * H + np.sqrt(1 - 0.28 ** 2) * V, KET0)
    a = forward(PROBABILISTIC) @ psi
    b = forward(DETERMINISTIC) @ psi
    assert np.max(np.abs(S2 * a - b)) < ATOL


def test_detection_chain_realizes_the_ideal_analyzers():
    # Bob's lab analyzer is the o2->pi transferrer followed by a polarizer.
    # On the o2 qubit (|H> x span{|+2>, |-2>}) its effective POVM element is
    # the ideal projector the tomography model uses, times the detection
    # transfer efficiency of the rate budget.
    back = backward(PROBABILISTIC)
    embed = np.kron(H[:, None], np.eye(3)[:, 1:])
    analyzer = {"+2": "+", "-2": "-", "h": "H", "v": "V", "a": "R", "d": "L"}
    eff = RateBudget().transfer_det_eff
    for bob, pol in analyzer.items():
        ket = basis_ket(pol).amplitudes
        polarizer = np.kron(np.outer(ket, ket.conj()), np.eye(3))
        povm = embed.conj().T @ back.conj().T @ polarizer @ back @ embed
        ket = basis_ket(bob).amplitudes
        assert np.max(np.abs(povm - eff * np.outer(ket, ket.conj()))) < ATOL


def test_half_waveplate_matrix_and_actions():
    assert np.max(np.abs(half_waveplate(np.pi / 8) @ H - (H + V) / S2)) < ATOL
    assert np.max(np.abs(half_waveplate(0.0) @ V + V)) < ATOL
    # the fringe scan's analyzer at theta is |H> through a half waveplate
    # at theta / 4
    grid = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    records = fringe_scan_records(hybrid_singlet(), "h", grid, exact=True)
    for theta, rec in zip(grid, records):
        ket = half_waveplate(theta / 4) @ H
        assert np.max(np.abs(rec.setting.alice_proj - np.outer(ket, ket.conj()))) < ATOL


def test_quarter_waveplate_makes_circular_light():
    # at +-pi/4 it turns |H> into the package's |L> and |R>
    assert np.max(np.abs(quarter_waveplate(0.0) - np.diag([1, -1j]))) < ATOL
    for t, label in ((np.pi / 4, "L"), (-np.pi / 4, "R")):
        overlap = np.vdot(basis_ket(label).amplitudes, quarter_waveplate(t) @ H)
        assert abs(overlap - np.exp(-1j * np.pi / 4)) < ATOL
