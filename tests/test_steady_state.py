import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ddcontrol.behavioral import Trajectory, build_hankel
from ddcontrol.costs import (QuadraticSoftplusCost, QuadraticTrackingCost,
                             hvac_cost_schedule)
from ddcontrol.errors import NonConvergenceError, PersistencyError
from ddcontrol.plant import collect_offline_data, simulate
from ddcontrol.steady_state import (SteadyStateProjector, build_projector,
                                    optimal_steady_state, project)

from helpers import (SwitchingQuadraticCost, model_steady_state, random_system,
                     rank_by_svd)

# hand-computed values for the scalar reference plant (steady states y = 2u):
# null(S) spanned by (1, 2)/sqrt(5), so P = [[0.2, 0.4], [0.4, 0.8]]
P_SISO = np.array([[0.2, 0.4], [0.4, 0.8]])


@pytest.fixture(scope="module")
def siso_proj(siso_data):
    return build_projector(siso_data, n=1)


def oracle_rows(proj, cost, times):
    """The oracle's runs repeated to one minimizer row per time."""
    starts, zeta = optimal_steady_state(proj, cost, times)
    return np.repeat(zeta, np.diff(starts, append=len(times)), axis=0)


def test_projector_matches_hand_computation(siso_proj):
    assert_allclose(siso_proj.P, P_SISO, atol=1e-8)
    direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
    basis = siso_proj.basis[:, 0]
    assert_allclose(np.abs(basis @ direction), 1.0, atol=1e-10)


def test_projector_invariants(siso_proj):
    P, S, basis = siso_proj.P, siso_proj.S, siso_proj.basis
    assert np.linalg.norm(P - P.T) <= 1e-10
    assert np.linalg.norm(P @ P - P) <= 1e-10
    assert np.linalg.norm(S @ basis, axis=0).max() <= 1e-9
    assert_allclose(P @ basis, basis, atol=1e-10)


def test_origin_is_always_an_equilibrium(siso_proj):
    assert_allclose(siso_proj.S @ np.zeros(2), np.zeros(4), atol=1e-15)


def test_project_examples(siso_proj):
    z_on = siso_proj.basis[:, 0] * 1.7
    assert_allclose(project(siso_proj, z_on), z_on, atol=1e-10)
    assert_allclose(project(siso_proj, np.zeros(2)), np.zeros(2), atol=1e-15)
    assert_allclose(project(siso_proj, np.array([1.0, 0.0])),
                    np.array([0.2, 0.4]), atol=1e-8)
    result = project(siso_proj, np.array([3.0, -1.0]))
    assert np.linalg.norm(siso_proj.S @ result) <= 1e-8 * np.linalg.norm([3.0, -1.0])


def test_project_dimension_mismatch(siso_proj):
    with pytest.raises(ValueError, match="expected a point"):
        project(siso_proj, np.zeros(3))


def test_pe_violation_raises(siso_model):
    traj = simulate(siso_model, np.zeros(1), np.ones((10, 1)))
    with pytest.raises(PersistencyError):
        build_projector(traj, n=1)


def test_degenerate_data_raises():
    data = Trajectory(np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError, match="degenerate"):
        build_projector(data, n=2)


# ------------------------------------------------- model-based equivalence

@pytest.fixture(scope="module")
def random_plants():
    rng = np.random.default_rng(2024)
    plants = []
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        model = random_system(rng, n, m, p)
        data = collect_offline_data(model, 30 * (m + 1) + 40,
                                    pe_order=2 * n + 1,
                                    seed=int(rng.integers(10 ** 6)))
        plants.append((model, data))
    return plants


def test_manifold_equivalence_on_random_systems(random_plants):
    rng = np.random.default_rng(7)
    for model, data in random_plants:
        proj = build_projector(data, model.n)
        # every model-derived steady state is in null(S)
        for _ in range(5):
            z_s = model_steady_state(model, rng.normal(size=model.m))
            assert np.linalg.norm(proj.S @ z_s) <= 1e-7 * max(1.0, np.linalg.norm(z_s))
        # every basis direction of null(S) is a model steady state
        for col in proj.basis.T:
            z_model = model_steady_state(model, col[:model.m])
            assert_allclose(col, z_model, atol=1e-7)


def test_nullspace_dimension_is_input_dimension(random_plants):
    for model, data in random_plants:
        proj = build_projector(data, model.n)
        nullity = proj.S.shape[1] - rank_by_svd(proj.S)
        assert proj.dim == nullity == model.m


def test_steady_state_dimension_on_poorly_observable_plants():
    # n = 5 plants with poles below 0.33 seen through one output, 150
    # samples each: S has singular values 1.04, 2.3e-10, 8.7e-11 and 0.94,
    # 2.0e-11, 6.5e-12. Ranked against S's own sigma_max (cutoffs 1.9e-11
    # and 1.7e-11) the round-off values counted and the sets came out of
    # dimension 0 and 1; at eps cond_r(H) (cond_r 1.0e7 and 1.4e6, cutoffs
    # 4.2e-8 and 5.2e-9) both are m = 2
    dims = []
    for seed in (889143, 969146):
        model = random_system(np.random.default_rng(seed), 5, 2, 1)
        data = collect_offline_data(model, 150, pe_order=3 * 5 + 5 + 1, seed=seed)
        dims.append(build_projector(data, model.n).dim)
    assert dims == [2, 2]


def test_steady_state_dimension_is_input_dimension_across_shapes():
    # 40 records of shapes up to n = 5 and m, p = 3, each a little longer
    # than the controller's excitation order at mu = n needs: ranked at
    # eps cond_r(H), every steady-state set has dimension m
    rng = np.random.default_rng(10)
    shapes = []
    for _ in range(40):
        n, m, p = (int(k) for k in rng.integers(1, [6, 4, 4]))
        model = random_system(rng, n, m, p)
        order = 4 * n + 1
        data = collect_offline_data(model, (m + 1) * order + 10, pe_order=order,
                                    seed=int(rng.integers(10 ** 6)))
        assert build_projector(data, n).dim == m, (n, m, p)
        shapes.append((n, m, p))
    assert len(set(shapes)) >= 20


def test_projector_factors_each_matrix_once(monkeypatch, random_plants):
    # one SVD per offline matrix: H gives the rank check and H^+, S gives
    # S^+ and the basis; no matrix is decomposed twice
    import ddcontrol.linalg as linalg

    factored, decomposed = [], []
    real_factor, real_svd = linalg.factor, np.linalg.svd

    def recording_factor(M, *args):
        factored.append(np.array(M))
        return real_factor(M, *args)

    def recording_svd(M, *args, **kwargs):
        decomposed.append(np.array(M))
        return real_svd(M, *args, **kwargs)

    monkeypatch.setattr(linalg, "factor", recording_factor)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    model, data = random_plants[0]
    n = model.n
    proj = build_projector(data, n)
    H = np.vstack([build_hankel(data.inputs, n + 1), build_hankel(data.outputs, n + 1)])
    assert len(factored) == 2
    assert np.array_equal(factored[0], H)
    assert np.array_equal(factored[1], proj.S)
    for i, M in enumerate(decomposed):
        assert not any(M.shape == other.shape and np.array_equal(M, other)
                       for other in decomposed[:i])


# ------------------------------------------------- optimal steady state

def softplus_cost(cls=QuadraticSoftplusCost):
    return cls(H=np.diag([3.0, 1.0]), target=np.array([0.3, 1.2]),
               a=np.array([0.5, -0.4]), c=2.0)


def test_optimal_steady_state_calculus_oracle(siso_proj):
    # L(u, y) = 0.5 (y - r)^2 + 0.5 lam u^2 restricted to y = 2u:
    # d/du [0.5 (2u - r)^2 + 0.5 lam u^2] = 0  ->  u = 2 r / (4 + lam)
    r, lam = 1.0, 10.0
    cost = QuadraticTrackingCost(H=np.diag([lam, 1.0]), target=np.array([0.0, r]))
    zeta = optimal_steady_state(siso_proj, cost)
    eta = 2 * r / (4 + lam)
    assert_allclose(zeta, [eta, 2 * eta], atol=1e-10)


def test_optimal_steady_state_trivial_cases(siso_proj):
    origin = optimal_steady_state(
        siso_proj, QuadraticTrackingCost(H=np.eye(2), target=np.zeros(2)))
    assert_allclose(origin, np.zeros(2), atol=1e-12)
    z0 = siso_proj.basis[:, 0] * 0.8
    back = optimal_steady_state(
        siso_proj, QuadraticTrackingCost(H=np.eye(2), target=z0))
    assert_allclose(back, z0, atol=1e-10)


def test_optimal_steady_state_first_order_optimality(random_plants):
    rng = np.random.default_rng(3)
    for model, data in random_plants[:8]:
        proj = build_projector(data, model.n)
        dim = model.m + model.p
        M = rng.normal(size=(dim, dim))
        cost = QuadraticTrackingCost(H=M @ M.T + np.eye(dim),
                                     target=rng.normal(size=dim))
        zeta = optimal_steady_state(proj, cost)
        assert np.linalg.norm(proj.P @ cost.grad(0, zeta)) <= 1e-8


def test_optimal_steady_state_iterative_path(siso_proj):
    # non-quadratic cost exercises the projected-gradient fallback; check
    # the result against a dense scipy solve in the basis coordinates
    from scipy.optimize import minimize

    cost = softplus_cost()
    zeta = optimal_steady_state(siso_proj, cost)
    assert np.linalg.norm(siso_proj.P @ cost.grad(0, zeta)) <= 1e-9
    B = siso_proj.basis
    res = minimize(lambda w: cost.eval(0, B @ (w := np.atleast_1d(w))),
                   x0=np.zeros(B.shape[1]), method="BFGS",
                   options={"gtol": 1e-12})
    assert_allclose(zeta, B @ res.x, atol=1e-6)


@pytest.mark.parametrize("field", ["target", "a", "c"])
def test_iterative_oracle_stops_at_an_overflowing_gradient(siso_proj, field):
    # a 1e300 entry in any softplus parameter makes the first projected
    # gradient's norm inf; the solver stops there instead of iterating to
    # its cap, which took 10-12 s per cost
    params = dict(H=np.diag([3.0, 1.0]), target=np.array([0.3, 1.2]),
                  a=np.array([0.5, -0.4]), c=2.0)
    params[field] = 1e300 if field == "c" else np.array([1e300, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        cost = QuadraticSoftplusCost(**params)
        start = time.perf_counter()
        with pytest.raises(NonConvergenceError,
                           match="projected gradient norm is inf at iteration 0"):
            optimal_steady_state(siso_proj, cost)
    assert time.perf_counter() - start < 0.1


def test_iterative_oracle_refuses_a_step_that_cannot_move(siso_proj):
    # |a|^2 overflows, so l_z is inf and the step 2/(alpha_z + l_z) is 0:
    # the solver stops at once instead of spinning to its iteration cap,
    # which took 9 s
    with np.errstate(over="ignore"):
        cost = QuadraticSoftplusCost(H=np.eye(2), target=np.array([0.5, 1.0]),
                                     a=np.array([1e160, 0.0]), c=1e-10)
    assert cost.l_z == np.inf
    start = time.perf_counter()
    with pytest.raises(NonConvergenceError,
                       match="l_z = inf cannot move the iterate at iteration 0"):
        optimal_steady_state(siso_proj, cost)
    assert time.perf_counter() - start < 0.1


ORACLE_COSTS = {
    "scheduled": lambda: hvac_cost_schedule(p=1, m=1, day_steps=200),
    "static": lambda: QuadraticTrackingCost(H=np.diag([10.0, 1.0]),
                                            target=np.array([0.0, 1.0])),
    "switching": lambda: SwitchingQuadraticCost(
        np.diag([2.0, 1.0]), [[0.0, 0.0], [1.5, 3.0], [-1.0, 0.5]], [0, 50, 120]),
    "softplus": softplus_cost,
}


@pytest.mark.parametrize("name", ORACLE_COSTS)
def test_batched_oracle_equals_per_time_calls(siso_proj, name):
    cost = ORACLE_COSTS[name]()
    times = np.arange(200)
    batched = oracle_rows(siso_proj, cost, times)
    per_time = np.array([optimal_steady_state(siso_proj, cost, t) for t in times])
    assert batched.shape == (200, 2)
    np.testing.assert_array_equal(batched, per_time)
    # and each row is the constrained minimizer of its own cost
    for t in (0, 49, 50, 119, 120, 199):
        grad = cost.grad(t, batched[t])
        assert np.linalg.norm(siso_proj.P @ grad) <= 1e-8 * (1 + np.linalg.norm(grad))


class CountingSoftplusCost(QuadraticSoftplusCost):
    grads = 0

    def grad(self, t, z):
        self.grads += 1
        return super().grad(t, z)


def test_static_cost_is_solved_once_over_many_times(siso_proj):
    once = softplus_cost(CountingSoftplusCost)
    optimal_steady_state(siso_proj, once, 0)
    many = softplus_cost(CountingSoftplusCost)
    optimal_steady_state(siso_proj, many, np.arange(200))
    assert once.grads > 1
    assert many.grads == once.grads


def test_oracle_gives_each_run_once(siso_proj):
    cost = ORACLE_COSTS["switching"]()
    times = np.arange(200)
    starts, zeta = optimal_steady_state(siso_proj, cost, times)
    np.testing.assert_array_equal(starts, [0, 50, 120])
    assert zeta.shape == (3, 2)
    for start, row in zip(starts, zeta):
        np.testing.assert_array_equal(
            row, optimal_steady_state(siso_proj, cost, int(start)))


def test_oracle_shapes_follow_the_time_argument(siso_proj):
    cost = ORACLE_COSTS["scheduled"]()
    assert optimal_steady_state(siso_proj, cost, 3).shape == (2,)
    assert optimal_steady_state(siso_proj, cost, np.int64(3)).shape == (2,)
    assert oracle_rows(siso_proj, cost, [3]).shape == (1, 2)
    assert_allclose(oracle_rows(siso_proj, cost, [3, 7])[1],
                    optimal_steady_state(siso_proj, cost, 7), rtol=1e-12)


@pytest.mark.parametrize("name", ORACLE_COSTS)
def test_oracle_on_zero_dimensional_set_gives_zeros(name):
    # a set holding only the origin, as when the data admit no equilibrium
    proj = SteadyStateProjector(S=np.eye(2), P=np.zeros((2, 2)),
                                basis=np.zeros((2, 0)), m=1, p=1)
    zeta = oracle_rows(proj, ORACLE_COSTS[name](), np.arange(5))
    np.testing.assert_array_equal(zeta, np.zeros((5, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_projection_nonexpansive(siso_data, seed):
    proj = build_projector(siso_data, n=1)
    rng = np.random.default_rng(seed)
    z1, z2 = rng.normal(size=2), rng.normal(size=2)
    assert (np.linalg.norm(proj.P @ z1 - proj.P @ z2)
            <= np.linalg.norm(z1 - z2) + 1e-12)
