import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from ddcontrol.behavioral import membership_residual, persistency_check
from ddcontrol.errors import PersistencyError
from ddcontrol.plant import (NoiseModel, PlantModel, ThermalZoneParams,
                             build_hvac, collect_offline_data, discretize_zoh,
                             random_system, simulate, step,
                             thermal_coupling_matrices)
from ddcontrol.plant import _expm


# ---------------------------------------------------------------- model checks

def test_model_validation():
    with pytest.raises(ValueError, match="Schur"):
        PlantModel([[1.5]], [[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="controllable"):
        PlantModel(np.diag([0.5, 0.2]), [[1.0], [0.0]], np.eye(2))
    with pytest.raises(ValueError, match="observable"):
        PlantModel(np.diag([0.5, 0.2]), np.eye(2), [[1.0, 0.0]])


# ---------------------------------------------------------------- stepping

def test_step_example(siso_model):
    x_next, y, y_meas = step(siso_model, np.zeros(1), np.ones(1))
    assert_allclose(y, [0.0])
    assert_allclose(y_meas, [0.0])
    assert_allclose(x_next, [1.0])


def test_step_dimension_mismatch(siso_model):
    with pytest.raises(ValueError, match="state"):
        step(siso_model, np.zeros(2), np.ones(1))
    with pytest.raises(ValueError, match="input"):
        step(siso_model, np.zeros(1), np.ones(2))


def test_unforced_decay_rate():
    rng = np.random.default_rng(0)
    model = random_system(rng, 3, 1, 1)
    x0 = rng.normal(size=3)
    norms = []
    x = x0.copy()
    for _ in range(200):
        x, _, _ = step(model, x, np.zeros(1))
        norms.append(np.linalg.norm(x))
    norms = np.array(norms)
    t = np.arange(1, 201)
    mask = norms > 1e-280
    slope = np.polyfit(t[mask], np.log(norms[mask]), 1)[0]
    rho_fit = np.exp(slope)
    assert rho_fit < 1.0
    # the smallest constant making |x_t| <= c rho^t |x0| hold must be modest
    c = np.max(norms[mask] / (rho_fit ** t[mask] * np.linalg.norm(x0)))
    assert np.isfinite(c) and c < 1e3
    assert np.all(norms[mask] <= c * rho_fit ** t[mask] * np.linalg.norm(x0) + 1e-12)


def test_superposition(siso_model):
    rng = np.random.default_rng(1)
    u1 = rng.normal(size=(30, 1))
    u2 = rng.normal(size=(30, 1))
    t1, _ = simulate(siso_model, np.zeros(1), u1)
    t2, _ = simulate(siso_model, np.zeros(1), u2)
    t12, _ = simulate(siso_model, np.zeros(1), u1 + u2)
    assert_allclose(t12.outputs, t1.outputs + t2.outputs, atol=1e-10)


# ---------------------------------------------------------------- offline data

def test_collect_offline_data_excitation(siso_model):
    data = collect_offline_data(siso_model, 50, pe_order=6, seed=0)
    assert persistency_check(data.inputs, 6)
    # any window of the data is trivially a member of itself
    assert membership_residual(data, data.window(10, 8)) <= 1e-10


def test_collect_offline_data_zero_width_box(siso_model):
    with pytest.raises(PersistencyError, match="not persistently exciting"):
        collect_offline_data(siso_model, 50, pe_order=6, input_box=(0.5, 0.5))


def test_collect_offline_data_too_short(siso_model):
    with pytest.raises(ValueError, match="too short"):
        collect_offline_data(siso_model, 8, pe_order=6)


def test_collect_offline_data_is_seeded(siso_model):
    a = collect_offline_data(siso_model, 50, pe_order=6, seed=9)
    b = collect_offline_data(siso_model, 50, pe_order=6, seed=9)
    assert_allclose(a.inputs, b.inputs)
    assert_allclose(a.outputs, b.outputs)


# ---------------------------------------------------------------- noise model

def test_noise_model_deterministic_and_bounded():
    nm1 = NoiseModel(seed=4, measurement=(-1.0, 1.0), process=(-0.1, 0.1))
    nm2 = NoiseModel(seed=4, measurement=(-1.0, 1.0), process=(-0.1, 0.1))
    e1 = np.array([nm1.draw_measurement(3) for _ in range(50)])
    e2 = np.array([nm2.draw_measurement(3) for _ in range(50)])
    assert_allclose(e1, e2)
    assert np.all(np.abs(e1) <= 1.0)
    q = np.array([nm1.draw_process(2) for _ in range(50)])
    assert np.all(np.abs(q) <= 0.1)
    assert_allclose(NoiseModel(seed=0).draw_measurement(2), np.zeros(2))
    with pytest.raises(ValueError, match="reversed"):
        NoiseModel(seed=0, measurement=(1.0, -1.0))


# ---------------------------------------------------------------- discretization

def test_zoh_zero_dynamics():
    A, B = discretize_zoh(np.zeros((2, 2)), np.eye(2), 0.7)
    assert_allclose(A, np.eye(2), atol=1e-12)
    assert_allclose(B, 0.7 * np.eye(2), atol=1e-12)


def test_zoh_scalar_closed_form():
    a, b, ts = -0.8, 2.0, 0.5
    A, B = discretize_zoh([[a]], [[b]], ts)
    assert_allclose(A, [[np.exp(a * ts)]], atol=1e-12)
    assert_allclose(B, [[(np.exp(a * ts) - 1.0) / a * b]], atol=1e-12)


def test_zoh_semigroup_property():
    rng = np.random.default_rng(5)
    A_c = rng.normal(size=(4, 4)) * 0.3
    B_c = rng.normal(size=(4, 2))
    A1, _ = discretize_zoh(A_c, B_c, 0.6)
    A2, _ = discretize_zoh(A_c, B_c, 1.2)
    assert np.linalg.norm(A1 @ A1 - A2) <= 1e-9


@pytest.mark.parametrize("a", [-12.0, -3.0, -0.8, -1e-3, 1e-3, 0.7, 4.0])
@pytest.mark.parametrize("ts", [0.01, 0.5, 1.0, 3.0])
def test_zoh_scalar_matches_closed_form_across_scales(a, ts):
    # e^{a t} and b (e^{a t} - 1) / a, from below to far above theta_13
    b = 2.0
    A, B = discretize_zoh([[a]], [[b]], ts)
    assert_allclose(A, [[np.exp(a * ts)]], rtol=1e-13, atol=0)
    assert_allclose(B, [[b * np.expm1(a * ts) / a]], rtol=1e-13, atol=0)


def test_expm_of_zero_is_exactly_identity():
    for k in (1, 3, 10):
        assert np.array_equal(_expm(np.zeros((k, k))), np.eye(k))


def test_expm_matches_scipy_on_thermal_block():
    from scipy.linalg import expm

    params = ThermalZoneParams()
    A_c, B_c = thermal_coupling_matrices(params)
    M = np.block([[A_c, B_c], [np.zeros((5, 10))]]) * params.sample_time
    ref = expm(M)
    assert np.linalg.norm(_expm(M) - ref) <= 1e-15 * np.linalg.norm(ref)


def test_expm_matches_scipy_on_random_matrices():
    from scipy.linalg import expm

    rng = np.random.default_rng(13)
    for k in range(1, 11):
        for norm in np.geomspace(1e-3, 50.0, 9):
            M = rng.normal(size=(k, k))
            M *= norm / np.abs(M).sum(axis=0).max()
            ref = expm(M)
            assert np.linalg.norm(_expm(M) - ref) <= 1e-12 * np.linalg.norm(ref), \
                (k, norm)


def test_zoh_rejects_nonpositive_sample_time():
    with pytest.raises(ValueError, match="positive"):
        discretize_zoh(np.zeros((1, 1)), np.ones((1, 1)), 0.0)


# ---------------------------------------------------------------- thermal model

def test_thermal_interior_zone_row_sum():
    params = ThermalZoneParams()
    A_c, B_c = thermal_coupling_matrices(params)
    ones = np.ones(params.zones)
    row_decay = A_c @ ones
    # inter-zone flows cancel at equal temperatures, leaving outdoor leakage
    for i, r in enumerate(params.r_outdoor):
        if r is None:
            assert abs(row_decay[i]) <= 1e-14
        else:
            assert_allclose(row_decay[i], -1.0 / (params.capacitance[i] * r))
    assert_allclose(B_c, np.diag(1.0 / np.asarray(params.capacitance)))


def test_thermal_discrete_model_stable_for_random_parameters():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = ThermalZoneParams(
            capacitance=rng.uniform(0.5, 20.0, size=5),
            r_outdoor=[rng.uniform(2.0, 60.0), rng.uniform(2.0, 60.0), None,
                       rng.uniform(2.0, 60.0), rng.uniform(2.0, 60.0)],
            r_between={k: rng.uniform(2.0, 80.0)
                       for k in [(0, 1), (0, 2), (0, 3), (1, 2), (2, 4), (3, 4)]},
            sample_time=rng.uniform(0.2, 5.0),
        )
        model = build_hvac(params)
        assert model.spectral_radius() < 1.0


def test_thermal_scalar_reduction():
    params = ThermalZoneParams(capacitance=np.array([1.0]), r_outdoor=[1.0],
                               r_between={}, sample_time=0.9,
                               sensor_zones=(0,))
    model = build_hvac(params)
    assert_allclose(model.A, [[np.exp(-0.9)]], atol=1e-12)


def test_thermal_validation_errors():
    with pytest.raises(ValueError, match="capacitances"):
        thermal_coupling_matrices(ThermalZoneParams(
            capacitance=np.array([1.0, -1.0, 1.0, 1.0, 1.0])))
    with pytest.raises(ValueError, match="disconnected"):
        thermal_coupling_matrices(ThermalZoneParams(
            r_between={(0, 1): 10.0, (3, 4): 10.0}))
    with pytest.raises(ValueError, match="at least one zone"):
        thermal_coupling_matrices(ThermalZoneParams(
            r_outdoor=[None] * 5))
    with pytest.raises(ValueError, match="positive finite"):
        thermal_coupling_matrices(ThermalZoneParams(
            r_between={(0, 1): -2.0, (0, 2): 10.0, (0, 3): 10.0,
                       (1, 2): 10.0, (2, 4): 10.0, (3, 4): 10.0}))


def test_shipped_thermal_defaults_match_expected_structure():
    model = build_hvac()
    assert (model.n, model.m, model.p) == (5, 5, 3)
    assert model.spectral_radius() < 1.0
    # sensors read zones 1, 4, 5 of the floor plan (0-indexed 0, 3, 4)
    assert_allclose(model.C.sum(axis=0), [1, 0, 0, 1, 1])
    assert_allclose(model.D, np.zeros((3, 5)))


def test_hvac_matches_direct_exponential():
    params = ThermalZoneParams()
    A_c, B_c = thermal_coupling_matrices(params)
    model = build_hvac(params)
    assert_allclose(model.A, expm(A_c * params.sample_time), atol=1e-12)


# ---------------------------------------------------------------- random systems

def test_random_system_is_minimal_and_stable():
    rng = np.random.default_rng(3)
    for _ in range(5):
        model = random_system(rng, 3, 2, 2)
        assert model.spectral_radius() < 1.0
        assert np.linalg.matrix_rank(model.controllability_matrix()) == 3
        assert np.linalg.matrix_rank(model.observability_matrix()) == 3
