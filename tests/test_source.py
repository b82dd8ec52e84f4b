import numpy as np
import pytest

from chain_oracle import reference_hybrid_state
from hybridoam import source
from hybridoam.budget import RateBudget
from hybridoam.source import (
    REFERENCE_FIDELITY,
    REFERENCE_LINEAR_ENTROPY,
    NoiseModel,
    fit_noise_model,
    hybrid_singlet_ket,
    noise_preset,
    prepare_hybrid,
)
from hybridoam.tomography import concurrence
from hybridoam.states import ATOL, DensityMatrix, StateVector

S2 = np.sqrt(2.0)

# frozen output of fit_noise_model() at the reference targets
FITTED_Q = 0.009040868653000356
FITTED_THETA = 0.19789613827834454


def fidelity_to(rho: DensityMatrix, psi: StateVector) -> float:
    return float(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real)


def linear_entropy_of(rho: DensityMatrix) -> float:
    return float((4.0 / 3.0) * (1.0 - np.trace(rho.matrix @ rho.matrix).real))


def test_singlet_amplitude_patterns():
    amp = np.array([0, 1, -1, 0]) / S2
    assert np.allclose(source._SINGLET, np.outer(amp, amp), atol=ATOL)
    assert np.allclose(
        hybrid_singlet_ket().amplitudes, np.array([1, 0, 0, -1]) / S2, atol=ATOL
    )


def test_constant_states_are_built_once_and_read_only():
    assert hybrid_singlet_ket() is hybrid_singlet_ket()
    for array in (source._SINGLET, hybrid_singlet_ket().amplitudes):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_ideal_preparation_is_exact():
    rho, success = prepare_hybrid()
    assert abs(success - 0.5) < ATOL
    assert abs(fidelity_to(rho, hybrid_singlet_ket()) - 1.0) < 1e-12
    assert linear_entropy_of(rho) < 1e-12


def test_deterministic_mode_has_unit_success():
    # a deterministic transferrer is a budget efficiency of 1.0; the state
    # is the same whatever the efficiency, only the success follows it
    nm = NoiseModel(werner_p=0.9, dephase_q=0.1, miscal_angle=0.2)
    want = prepare_hybrid(nm)[0].matrix
    for eff in (1.0, 0.3, RateBudget().transfer_prep_eff):
        rho, success = prepare_hybrid(nm, RateBudget(transfer_prep_eff=eff))
        assert success == eff
        assert np.array_equal(rho.matrix, want)
    rho, success = prepare_hybrid(budget=RateBudget(transfer_prep_eff=1.0))
    assert success == 1.0
    assert abs(fidelity_to(rho, hybrid_singlet_ket()) - 1.0) < 1e-12


def test_frame_alignment_maps_computational_basis():
    # net Bob map through transfer + alignment: H -> |-2>, V -> |+2>.  Full
    # dephasing leaves the singlet's (|HV><HV| + |VH><VH|)/2, which the
    # chain maps to |H,+2> and |V,-2>; a quarter-turn on Bob before the
    # transfer makes it (|HH><HH| + |VV><VV|)/2, mapped to |H,-2> and |V,+2>
    for angle, diagonal in ((0.0, [0.5, 0, 0, 0.5]), (np.pi / 2, [0, 0.5, 0.5, 0])):
        rho, _ = prepare_hybrid(NoiseModel(dephase_q=1.0, miscal_angle=angle))
        assert np.max(np.abs(rho.matrix - np.diag(diagonal))) < 1e-10


def test_compiled_transfer_matches_the_element_chain():
    rng = np.random.default_rng(17)
    # the q-plate and polarizing beamsplitter transferrer, and a deterministic one
    for success in (RateBudget().transfer_prep_eff, 1.0):
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            rho_pol = m / np.trace(m).real
            ref, ref_success = reference_hybrid_state(rho_pol, success)
            # the compiled operator prepare_hybrid applies, renormalized
            u = source._TRANSFER_UNITARY
            rho = u @ rho_pol @ u.conj().T
            assert np.max(np.abs(rho / np.trace(rho).real - ref)) < 1e-12
            assert abs(ref_success - success) < 1e-12


def test_transfer_preserves_spectrum():
    # the rotation and the transfer are unitary, so the prepared state keeps
    # the spectrum of the Werner-mixed, dephased singlet:
    # (1 - p)/4 + p {0, 0, q/2, 1 - q/2}
    for p, q, t in ((0.7, 0.0, 0.0), (0.9, 0.3, 0.0), (0.8, 0.2, 0.4), (1.0, 0.05, -1.1)):
        rho, _ = prepare_hybrid(NoiseModel(p, q, t))
        want = (1 - p) / 4 + p * np.array([0.0, 0.0, q / 2, 1 - q / 2])
        assert np.max(np.abs(np.linalg.eigvalsh(rho.matrix) - want)) < 1e-10


def test_werner_closed_forms_through_the_chain():
    psi = hybrid_singlet_ket()
    for p in (0.0, 0.3, 0.887, 1.0):
        rho, _ = prepare_hybrid(NoiseModel(werner_p=p))
        assert abs(fidelity_to(rho, psi) - (1 + 3 * p) / 4) < 1e-12
        assert abs(linear_entropy_of(rho) - (1 - p * p)) < 1e-12


def test_dephasing_scales_coherences():
    rho, _ = prepare_hybrid(NoiseModel(dephase_q=0.2))
    # the singlet's |HV><VH| coherence, carried to |H,+2><V,-2|, shrinks by
    # (1-q); the diagonal is untouched
    assert abs(rho.matrix[0, 3].real - (-0.5 * 0.8)) < ATOL
    assert abs(rho.matrix[0, 0].real - 0.5) < ATOL


def test_rotation_only_lowers_fidelity_as_cos_squared():
    for t in (0.1, 0.19789613827834454):
        rho, _ = prepare_hybrid(NoiseModel(miscal_angle=t))
        f = fidelity_to(rho, hybrid_singlet_ket())
        assert abs(f - np.cos(t) ** 2) < 1e-12


def test_noise_model_validation_and_dict_roundtrip():
    with pytest.raises(ValueError):
        NoiseModel(werner_p=1.2)
    with pytest.raises(ValueError):
        NoiseModel(dephase_q=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(miscal_angle=np.inf)
    # the message shows the converted float, not the integer's digits,
    # which past 4,300 Python refuses to print
    for huge in (10**400, 10**5000):
        with pytest.raises(ValueError, match="miscal_angle must be finite .*, got inf$"):
            NoiseModel(miscal_angle=huge)
    nm = NoiseModel(0.9, 0.05, 0.1)
    assert NoiseModel.from_dict(nm.as_dict()) == nm
    with pytest.raises(ValueError):
        NoiseModel.from_dict({"werner_p": 0.9, "detuning": 1.0})


def test_numpy_scalar_parameters_compute_in_float64():
    # each parameter is stored as the guard's float, so a float32 angle
    # prepares the same state as the float64 of its value
    narrow = NoiseModel(np.float32(0.9), np.float32(0.05), np.float32(0.1))
    wide = NoiseModel(*(float(np.float32(x)) for x in (0.9, 0.05, 0.1)))
    assert narrow == wide
    assert all(type(v) is float for v in narrow.as_dict().values())
    assert np.array_equal(prepare_hybrid(narrow)[0].matrix, prepare_hybrid(wide)[0].matrix)
    assert NoiseModel.from_dict({"werner_p": 1, "dephase_q": np.float16(0.25)}).werner_p == 1.0


def test_fit_noise_model_frozen_values():
    nm = fit_noise_model()
    assert nm.werner_p == 1.0
    assert abs(nm.dephase_q - FITTED_Q) < 1e-15
    assert abs(nm.miscal_angle - FITTED_THETA) < 1e-15
    # closed forms hit the targets exactly
    q, t = nm.dephase_q, nm.miscal_angle
    assert abs((1 - q / 2) * np.cos(t) ** 2 - REFERENCE_FIDELITY) < 1e-12
    assert abs((2 / 3) * (1 - (1 - q) ** 2) - REFERENCE_LINEAR_ENTROPY) < 1e-12


def test_fitted_preset_hits_reference_metrics_through_the_chain():
    rho, _ = prepare_hybrid("fitted")
    assert abs(fidelity_to(rho, hybrid_singlet_ket()) - 0.957) < 1e-12
    assert abs(linear_entropy_of(rho) - 0.012) < 1e-12
    # the measured concurrence, 0.957, is over-constrained in this family:
    # the preset reaches C = 1 - q, 0.033 above it
    assert abs(concurrence(rho) - (1.0 - FITTED_Q)) < 1e-12
    assert abs(concurrence(rho) - 0.957 - 0.033959) < 1e-6


def test_noise_presets():
    assert noise_preset("ideal") == NoiseModel(1.0, 0.0, 0.0)
    assert noise_preset("fitted") == fit_noise_model()
    # built once and shared: a NoiseModel is frozen
    assert noise_preset("fitted") is noise_preset("fitted")
    with pytest.raises(ValueError):
        noise_preset("lab")
    # the preparation takes a model or a preset name, "ideal" by default
    ideal = prepare_hybrid(noise_preset("ideal"))[0].matrix
    assert np.array_equal(prepare_hybrid()[0].matrix, ideal)
    for bad in (None, 5, {"werner_p": 0.9}):
        message = f"NoiseModel or a preset name, got {type(bad).__name__}$"
        with pytest.raises(TypeError, match=message):
            prepare_hybrid(bad)
    for bad in ({"qplate_eff": 1}, None):
        message = f"budget must be a RateBudget, got {type(bad).__name__}$"
        with pytest.raises(TypeError, match=message):
            prepare_hybrid("ideal", bad)
