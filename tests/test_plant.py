import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from ddcontrol.behavioral import Trajectory, membership_residual, persistency_check
from ddcontrol.plant import (NoiseModel, PlantModel, ThermalZoneParams,
                             build_hvac, collect_offline_data, simulate, step,
                             thermal_coupling_matrices)

from helpers import random_system


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
    t1 = simulate(siso_model, np.zeros(1), u1)
    t2 = simulate(siso_model, np.zeros(1), u2)
    t12 = simulate(siso_model, np.zeros(1), u1 + u2)
    assert_allclose(t12.outputs, t1.outputs + t2.outputs, atol=1e-10)


# ---------------------------------------------------------------- offline data

def test_collect_offline_data_excitation(siso_model):
    data = collect_offline_data(siso_model, 50, seed=0)
    assert persistency_check(data.inputs, 6)
    # any window of the data is trivially a member of itself
    window = Trajectory(data.inputs[10:18], data.outputs[10:18])
    assert membership_residual(data, window) <= 1e-10


def test_collect_offline_data_is_seeded(siso_model):
    a = collect_offline_data(siso_model, 50, seed=9)
    b = collect_offline_data(siso_model, 50, seed=9)
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

def _one_zone(a_rate: float, b_gain: float, ts: float) -> ThermalZoneParams:
    # a single zone leaking to outdoors: A_c = -1/(c r) and B_c = 1/c
    c = 1.0 / b_gain
    return ThermalZoneParams(capacitance=np.array([c]), r_outdoor=[-1.0 / (a_rate * c)],
                             r_between={}, sample_time=ts, sensor_zones=(0,))


def _zoh_reference(params: ThermalZoneParams):
    # (A, B) read off scipy's exponential of the augmented block [[A_c, B_c], [0, 0]] t_s
    A_c, B_c = thermal_coupling_matrices(params)
    n, m = B_c.shape
    E = expm(np.block([[A_c, B_c], [np.zeros((m, n + m))]]) * params.sample_time)
    return E[:n, :n], E[:n, n:]


def _random_network(rng: np.random.Generator) -> ThermalZoneParams:
    # the parameter ranges of the random stability test, with sample times
    # log-uniform in 0.01-50
    return ThermalZoneParams(
        capacitance=rng.uniform(0.5, 20.0, size=5),
        r_outdoor=[rng.uniform(2.0, 60.0), rng.uniform(2.0, 60.0), None,
                   rng.uniform(2.0, 60.0), rng.uniform(2.0, 60.0)],
        r_between={k: rng.uniform(2.0, 80.0)
                   for k in [(0, 1), (0, 2), (0, 3), (1, 2), (2, 4), (3, 4)]},
        sample_time=float(np.exp(rng.uniform(np.log(0.01), np.log(50.0)))),
    )


def _relative_error(X, ref) -> float:
    return np.linalg.norm(X - ref) / np.linalg.norm(ref)


def test_zoh_scalar_closed_form():
    model = build_hvac(_one_zone(-0.8, 2.0, 0.5))
    assert_allclose(model.A, [[np.exp(-0.8 * 0.5)]], atol=1e-12)
    assert_allclose(model.B, [[(np.exp(-0.8 * 0.5) - 1.0) / -0.8 * 2.0]], atol=1e-12)


def test_zoh_semigroup_property():
    # A(2 t_s) = A(t_s)^2 on the shipped network
    A1 = build_hvac(ThermalZoneParams(sample_time=1.0)).A
    A2 = build_hvac(ThermalZoneParams(sample_time=2.0)).A
    assert _relative_error(A1 @ A1, A2) <= 1e-14


@pytest.mark.parametrize("a", [-12.0, -3.0, -0.8, -1e-3])
@pytest.mark.parametrize("ts", [0.01, 0.5, 1.0, 3.0])
def test_zoh_scalar_matches_closed_form_across_scales(a, ts):
    # e^{a t} and b (e^{a t} - 1) / a, for the rate the one-zone network has
    b = 2.0
    params = _one_zone(a, b, ts)
    a = thermal_coupling_matrices(params)[0][0, 0]
    model = build_hvac(params)
    assert_allclose(model.A, [[np.exp(a * ts)]], rtol=1e-13, atol=0)
    assert_allclose(model.B, [[b * np.expm1(a * ts) / a]], rtol=1e-13, atol=0)


def test_expm_matches_scipy_on_thermal_block():
    # build_hvac's closed form against scipy on the shipped network
    params = ThermalZoneParams()
    A_ref, B_ref = _zoh_reference(params)
    model = build_hvac(params)
    assert _relative_error(model.A, A_ref) <= 1e-14
    assert _relative_error(model.B, B_ref) <= 1e-14


def test_expm_matches_scipy_on_random_matrices():
    # and on random networks, with sample times from 0.01 to 50
    rng = np.random.default_rng(13)
    for _ in range(24):
        params = _random_network(rng)
        A_ref, B_ref = _zoh_reference(params)
        model = build_hvac(params)
        assert _relative_error(model.A, A_ref) <= 1e-14, params.sample_time
        assert _relative_error(model.B, B_ref) <= 1e-14, params.sample_time


def test_zoh_rejects_nonpositive_sample_time():
    for ts in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sample_time must be positive and finite"):
            build_hvac(ThermalZoneParams(sample_time=ts))


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


def test_thermal_parameters_are_refused_by_name():
    # a NaN fails every comparison, so each check is written to pass only
    # the values it names
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="capacitances must be positive and finite"):
            thermal_coupling_matrices(ThermalZoneParams(
                capacitance=np.array([2.0, bad, 2.4, 1.8, 2.2])))
    for bad in (np.nan, -np.inf, 0.0):
        with pytest.raises(ValueError, match="outdoor resistance of zone 1 must be positive"):
            thermal_coupling_matrices(ThermalZoneParams(
                r_outdoor=[25.0, bad, None, 28.0, 22.0]))
    # +inf, like None, is an interior zone
    A_inf, _ = thermal_coupling_matrices(ThermalZoneParams(
        r_outdoor=[25.0, 30.0, np.inf, 28.0, 22.0]))
    assert np.array_equal(A_inf, thermal_coupling_matrices(ThermalZoneParams())[0])


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
