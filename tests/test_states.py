import json
import warnings

import numpy as np
import pytest

from hybridoam import prepare_hybrid, reconstruct, simulate_tomography
from hybridoam.measurement import MeasurementSetting
from hybridoam.states import (
    ATOL,
    DensityMatrix,
    InvalidLabelError,
    StateVector,
    _clip_to_states,
    matrix_from_json,
    matrix_to_json,
)

S2 = np.sqrt(2.0)


def _projector(ket):
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def _probabilities(alice_ket, bob_ket):
    """Each tomography setting's Born probability on a product state: its
    exact count at 1 cps for 1 s."""
    ket = np.kron(alice_ket, bob_ket)
    rho = DensityMatrix(_projector(ket / np.linalg.norm(ket)))
    return {r.setting.label: r.counts for r in simulate_tomography(rho, 1.0, 1.0, exact=True)}


def test_circular_polarization_convention():
    # |L> = (|H>+i|V>)/sqrt2, |R> = (|H>-i|V>)/sqrt2, as analyzers
    for ket, label, other in (([1.0, 1.0j], "L", "R"), ([1.0, -1.0j], "R", "L")):
        probs = _probabilities(np.array(ket), [1.0, 0.0])
        assert abs(probs[f"{label}|+2"] - 1.0) < ATOL and abs(probs[f"{other}|+2"]) < ATOL


def test_o2_superposition_kets():
    # h, v, a, d as Bob's analyzers; their kets' global phases drop out
    kets = {"h": [1.0, 1.0], "v": [1.0, -1.0], "a": [1.0, 1.0j], "d": [1.0, -1.0j]}
    for label, other in (("h", "v"), ("v", "h"), ("a", "d"), ("d", "a")):
        probs = _probabilities([1.0, 0.0], np.array(kets[label]))
        assert abs(probs[f"H|{label}"] - 1.0) < ATOL and abs(probs[f"H|{other}"]) < ATOL


def test_label_resolution_and_errors():
    assert MeasurementSetting("H", "+2").label == "H|+2"
    for bad in ("X", "0", "spin"):  # "0", the fundamental mode, is not an analyzer
        with pytest.raises(InvalidLabelError):
            MeasurementSetting("H", bad)
        with pytest.raises(InvalidLabelError):
            MeasurementSetting(bad, "+2")
    # labels are unique across the two degrees: "h" is the OAM state
    MeasurementSetting("H", "h")
    with pytest.raises(InvalidLabelError, match="not a polarization state"):
        MeasurementSetting("h", "+2")


def test_state_vector_normalization_guard():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(np.array([1.0, 0.0, 0.0, 1.0]))
    sv = StateVector(np.array([1.0, 0.0, 0.0, 1.0]) / S2)
    assert sv.amplitudes.shape == (4,)
    with pytest.raises(ValueError, match="4 amplitudes"):
        StateVector(np.ones(3) / np.sqrt(3.0))  # length mismatch


def test_density_matrix_guards():
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]) + np.eye(4, k=1))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(4) / 2)  # trace 2
    neg = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(neg)
    dm = DensityMatrix(neg, require_positive=False)
    assert np.array_equal(dm.matrix, neg)
    # the state holds a read-only copy; the caller's array, complex already
    # or not, stays writable
    for mat in (np.eye(4) / 4, np.eye(4, dtype=complex) / 4):
        frozen = DensityMatrix(mat).matrix
        assert mat.flags.writeable and not frozen.flags.writeable
        mat[0, 0] = 1.0
        assert frozen[0, 0] == 0.25


def test_states_are_two_qubit_by_construction():
    # a state is 4 amplitudes or a 4x4 matrix; any other shape is refused as
    # it is built, so no caller checks for two qubits again
    ket2 = np.array([1.0, 0.0])
    rho8 = np.eye(8) / 8
    refused = {
        "2-vector": lambda: StateVector(ket2),
        "2x2": lambda: DensityMatrix(np.eye(2) / 2),
        "8x8": lambda: DensityMatrix(rho8),
    }
    for case, build in refused.items():
        with pytest.raises(ValueError) as info:
            build()
        # a plain ValueError, not the analyzers' InvalidLabelError
        assert info.type is ValueError, case


def test_project_to_physical_clamps_and_renormalizes():
    # the projection reconstruct starts from, on an indefinite estimate
    raw = DensityMatrix(np.diag([0.8, 0.4, -0.1, -0.1]), require_positive=False)
    mat, least = _clip_to_states(raw.matrix)
    fixed = DensityMatrix(mat)  # physical
    assert np.allclose(fixed.matrix, np.diag([2 / 3, 1 / 3, 0, 0]), atol=ATOL)
    assert abs(least) < ATOL
    # idempotent on already physical input
    again, _ = _clip_to_states(fixed.matrix)
    assert np.max(np.abs(again - fixed.matrix)) < ATOL


def test_json_roundtrip_preserves_matrix():
    amp = np.array([1, 1j, -1, -1j]) / 2
    rho = DensityMatrix(np.outer(amp, amp.conj()))
    block = matrix_to_json(rho)
    assert list(block) == ["matrix"]
    # a block as 0.34 wrote it, with its factor names, reads back equal too
    old = {**block, "basis": ["polarization", "oam_o2"]}
    for data in (block, old):
        back = matrix_from_json(data)
        assert np.max(np.abs(back.matrix - rho.matrix)) < ATOL
    with pytest.raises(ValueError, match="'matrix'"):
        matrix_from_json({})


def test_json_reads_an_indefinite_linear_estimate_only_when_asked():
    # at 2 cps the fitted preset's linear inversion goes negative
    rho, _ = prepare_hybrid("fitted")
    linear = reconstruct(simulate_tomography(rho, rate_cps=2.0, seed=0)).rho_linear
    assert np.linalg.eigvalsh(linear.matrix)[0] < -0.1
    block = json.loads(json.dumps(matrix_to_json(linear)))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        matrix_from_json(block)
    back = matrix_from_json(block, require_positive=False)
    assert np.array_equal(back.matrix, linear.matrix)
    with pytest.raises(TypeError):
        matrix_from_json(block, positive=False)  # no other keyword is forwarded



# Values a state entry might be handed: non-finite, boolean, narrow,
# non-numeric and past float64's range.
FUZZ_ENTRIES = [
    np.nan, np.inf, -np.inf, True, False, np.True_, np.float32(0.25),
    "1", None, 2**64, 10**400, 10**5000,
]
NOT_NUMBERS = (str, bool, np.bool_, type(None))
WRONG_SHAPES = [[], 0.5, [0.5] * 3, [[0.5] * 4], [[0.25] * 4] * 3, [[[0.25]] * 4] * 4]


def _fuzzed_calls(rng, value):
    """Each state constructor on a valid state with ``value`` put in one
    random entry: (value, call, whether the input is a list)."""
    i, j = (int(k) for k in rng.integers(4, size=2))
    ket = [0.5] * 4
    ket[i] = value
    rho = (np.eye(4) / 4).tolist()
    rho[i][j] = value
    if rng.random() < 0.5:
        rho[j][i] = value  # Hermitian when the value is real
    pairs = [[[x, 0.0] for x in row] for row in (np.eye(4) / 4).tolist()]
    pairs[i][j][int(rng.integers(2))] = value
    yield value, lambda: StateVector(ket), True
    yield value, lambda: DensityMatrix(rho), True
    yield value, lambda: DensityMatrix(rho, require_positive=False), True
    yield value, lambda: matrix_from_json({"matrix": pairs}), True
    # numpy's own conversion may turn the value into a number first
    yield value, lambda: StateVector(np.array(ket)), False
    yield value, lambda: DensityMatrix(np.array(rho)), False


def test_state_constructors_take_or_refuse_fuzzed_entries():
    rng = np.random.default_rng(38)
    calls = [call for _ in range(10) for v in FUZZ_ENTRIES for call in _fuzzed_calls(rng, v)]
    for shape in WRONG_SHAPES:
        calls += [
            (shape, lambda s=shape: StateVector(s), True),
            (shape, lambda s=shape: DensityMatrix(s), True),
            (shape, lambda s=shape: matrix_from_json({"matrix": s}), True),
            (shape, lambda s=shape: StateVector(np.array(s)), False),
        ]
    for pairs in ([[[0.25]] * 4] * 4, [[[0.25, 0.0, 0.0]] * 4] * 4, [[0.25] * 4] * 4):
        calls.append((pairs, lambda p=pairs: matrix_from_json({"matrix": p}), True))
    outcomes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the call
        for value, call, from_list in calls:
            try:
                call()
            except (ValueError, TypeError) as err:
                # a typed refusal, not a raw numpy error such as LinAlgError
                assert type(err) in (ValueError, TypeError), (value, err)
                refused = err
            else:
                refused = None
            outcomes.add("built" if refused is None else type(refused).__name__)
            if from_list and isinstance(value, NOT_NUMBERS):
                assert isinstance(refused, TypeError), (value, refused)
            if type(value) is int and value > 2**1024:
                assert isinstance(refused, ValueError), refused
                assert "not finite" in str(refused)
    assert outcomes == {"built", "ValueError", "TypeError"}
