import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddcontrol.costs import (CostFunction, CostSegment, QuadraticScheduledCost,
                             QuadraticSoftplusCost, QuadraticTrackingCost,
                             hvac_cost_schedule, piecewise_linear_profile)
from ddcontrol.costs import _logistic
from ddcontrol.harness import ExperimentConfig, shipped_config_path

from helpers import SwitchingQuadraticCost, central_diff


def scheduled_single(output_weight, input_weight, setpoint, price=1.0, m=1):
    p = np.atleast_1d(setpoint).size
    return QuadraticScheduledCost(
        m=m,
        segments=[CostSegment(0, output_weight * np.eye(p), input_weight,
                              np.atleast_1d(setpoint).astype(float))],
        price_series=np.full(10, price),
    )


# ---------------------------------------------------------------- eval

def test_eval_at_setpoint_is_zero():
    c = scheduled_single(1.0, 10.0, 3.0)
    assert c.eval(0, np.array([0.0, 3.0])) == 0.0


def test_eval_arithmetic_example():
    # 0.5 * (0 - 3)^2 + 0.5 * 10 * 1^2 = 4.5 + 5 = 9.5
    c = scheduled_single(1.0, 10.0, 3.0)
    assert_allclose(c.eval(0, np.array([1.0, 0.0])), 9.5)


def test_eval_linear_in_input_weight():
    z = np.array([0.7, 1.1])
    c1 = scheduled_single(0.0 + 1.0, 4.0, 3.0)
    c2 = scheduled_single(0.0 + 1.0, 8.0, 3.0)
    out_term = 0.5 * (z[1] - 3.0) ** 2
    assert_allclose(c2.eval(0, z) - out_term,
                    2.0 * (c1.eval(0, z) - out_term))


def test_eval_beyond_horizon_raises():
    c = scheduled_single(1.0, 10.0, 3.0)
    with pytest.raises(IndexError, match="beyond configured horizon"):
        c.eval(10, np.zeros(2))
    with pytest.raises(IndexError):
        c.eval(-1, np.zeros(2))


# ---------------------------------------------------------------- grad

def test_grad_zero_at_unconstrained_minimum():
    c = scheduled_single(1.0, 10.0, 3.0)
    assert_allclose(c.grad(0, np.array([0.0, 3.0])), np.zeros(2), atol=1e-15)


def test_grad_hand_example():
    c = scheduled_single(1.0, 10.0, 3.0)
    assert_allclose(c.grad(0, np.array([1.0, 0.0])), [10.0, -3.0])


@pytest.mark.parametrize("family", ["tracking", "softplus", "scheduled"])
def test_grad_matches_central_differences(family):
    rng = np.random.default_rng(17)
    if family == "tracking":
        M = rng.normal(size=(3, 3))
        cost = QuadraticTrackingCost(H=M @ M.T + np.eye(3),
                                     target=rng.normal(size=3))
    elif family == "softplus":
        M = rng.normal(size=(3, 3))
        cost = QuadraticSoftplusCost(H=M @ M.T + np.eye(3),
                                     target=rng.normal(size=3),
                                     a=rng.normal(size=3), c=1.5)
    else:
        cost = hvac_cost_schedule(p=2, m=1, day_steps=48)
    dim = 3 if family != "scheduled" else 3
    for _ in range(100):
        t = int(rng.integers(0, 10))
        z = rng.normal(size=dim) * 2.0
        g = cost.grad(t, z)
        fd = central_diff(lambda v: cost.eval(t, v), z)
        assert_allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_logistic_matches_scipy_expit():
    from scipy.special import expit

    x = np.linspace(-700.0, 700.0, 200_001)
    ref = expit(x)
    assert np.all(np.abs(_logistic(x) - ref) <= 4 * np.spacing(ref))


def test_logistic_does_not_overflow():
    # exp(-1000) underflows to 0, the correctly rounded value; nothing
    # overflows, divides by zero or turns invalid
    with np.errstate(all="raise", under="ignore"):
        assert_allclose(_logistic(np.array([-1000.0, 1000.0])), [0.0, 1.0],
                        rtol=0, atol=0)
        assert float(_logistic(1000.0)) == 1.0


# ---------------------------------------------------------------- moduli

def test_moduli_validation():
    with pytest.raises(ValueError, match="alpha_z"):
        QuadraticTrackingCost(H=np.diag([0.0, 1.0]), target=np.zeros(2))
    c = QuadraticTrackingCost(H=np.diag([2.0, 5.0]), target=np.zeros(2))
    assert (c.alpha_z, c.l_z) == (2.0, 5.0)


def test_convexity_smoothness_sandwich():
    rng = np.random.default_rng(23)
    M = rng.normal(size=(4, 4))
    cost = QuadraticSoftplusCost(H=M @ M.T + 0.5 * np.eye(4),
                                 target=rng.normal(size=4),
                                 a=rng.normal(size=4), c=2.0)
    for _ in range(50):
        z1, z2 = rng.normal(size=4) * 3, rng.normal(size=4) * 3
        gap = (cost.eval(0, z1) - cost.eval(0, z2)
               - cost.grad(0, z2) @ (z1 - z2))
        d2 = 0.5 * np.sum((z1 - z2) ** 2)
        assert cost.alpha_z * d2 - 1e-9 <= gap <= cost.l_z * d2 + 1e-9


# ---------------------------------------------------------------- schedule

def test_schedule_breakpoints_must_increase():
    seg = lambda s: CostSegment(s, np.eye(1), 1.0, np.zeros(1))
    with pytest.raises(ValueError, match="strictly increase"):
        QuadraticScheduledCost(m=1, segments=[seg(0), seg(5), seg(5)],
                               price_series=np.ones(10))
    with pytest.raises(ValueError, match="strictly increase"):
        QuadraticScheduledCost(m=1, segments=[seg(2)], price_series=np.ones(10))


def test_schedule_rejects_nonpositive_price():
    with pytest.raises(ValueError, match="positive"):
        QuadraticScheduledCost(
            m=1, segments=[CostSegment(0, np.eye(1), 1.0, np.zeros(1))],
            price_series=np.array([1.0, 0.0, 1.0]))


def test_schedule_hessians_within_moduli():
    cost = hvac_cost_schedule(p=3, m=5, day_steps=96)
    for t in (0, 30, 50, 95):
        H, _, _ = cost.quadratic_terms(t)
        w = np.linalg.eigvalsh(H)
        assert cost.alpha_z - 1e-12 <= w[0]
        assert w[-1] <= cost.l_z + 1e-12


def test_schedule_quadratic_terms_match_parameters():
    # the terms are the closed form of params_at, bit for bit, at every t
    cost = hvac_cost_schedule(p=3, m=5, day_steps=96)
    for t in range(cost.horizon):
        W, iw, sp = cost.params_at(t)
        H_ref = np.zeros((8, 8))
        H_ref[:5, :5] = iw * np.eye(5)
        H_ref[5:, 5:] = W
        H, g, c = cost.quadratic_terms(t)
        np.testing.assert_array_equal(H, H_ref)
        np.testing.assert_array_equal(g, np.concatenate([np.zeros(5), -W @ sp]))
        assert c == 0.5 * float(sp @ W @ sp)


def test_schedule_quadratic_terms_survive_caller_mutation():
    cost = hvac_cost_schedule(p=3, m=5, day_steps=96)
    H0, g0, c0 = (np.copy(x) for x in cost.quadratic_terms(40))
    H, g, _ = cost.quadratic_terms(40)
    H += 1.0
    try:
        g += 1.0
    except ValueError:           # read-only is as good as a copy
        pass
    for t in (40, 41):           # same segment, same and other price
        H_t, g_t, c_t = cost.quadratic_terms(t)
        np.testing.assert_array_equal(g_t, g0)
        assert c_t == c0
    np.testing.assert_array_equal(cost.quadratic_terms(40)[0], H0)


@pytest.mark.parametrize("make", [
    lambda: QuadraticTrackingCost(H=np.diag([1.0, 4.0]), target=np.array([1.0, -1.0])),
    lambda: SwitchingQuadraticCost(np.diag([1.0, 4.0]), [[1.0, -1.0], [0.0, 2.0]],
                                   [0, 5]),
], ids=["tracking", "switching"])
def test_quadratic_terms_hessian_is_the_callers_copy(make):
    # editing the returned Hessian must leave the cost as it was
    cost = make()
    before = cost.eval(0, np.zeros(2))
    H, _, _ = cost.quadratic_terms(0)
    H *= 3.0
    assert cost.eval(0, np.zeros(2)) == before
    np.testing.assert_array_equal(cost.quadratic_terms(0)[0], np.diag([1.0, 4.0]))


# ---------------------------------------------------------------- array forms

def scalar_run_starts(cost, times):
    """Where ``params_key`` changes along ``times``, one scalar call per time."""
    keys = [cost.params_key(int(t)) for t in times]
    return [i for i in range(len(keys)) if i == 0 or keys[i] != keys[i - 1]]


def assert_array_forms_match_scalar_forms(cost, times):
    np.testing.assert_array_equal(cost.run_starts(times), scalar_run_starts(cost, times))
    stacked = cost.stacked_quadratic_terms(times)
    if cost.quadratic_terms(int(times[0])) is None:
        assert stacked is None
        return
    for t, *terms in zip(times, *stacked):
        for got, want in zip(terms, cost.quadratic_terms(int(t))):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("times", [np.arange(1440), np.arange(359, 541),
                                   np.array([360]), np.array([540, 541])],
                         ids=["day", "segment-starts", "360", "540"])
def test_shipped_day_array_forms_equal_scalar_forms(times):
    # the oracle reads the runs and the terms of every t in one call each;
    # they are the scalar params_key partition and quadratic_terms, bit for bit
    cost = ExperimentConfig.from_json(shipped_config_path()).build()[2]
    assert [seg.start for seg in cost.segments] == [0, 360, 540]
    assert cost.horizon == 1440
    assert_array_forms_match_scalar_forms(cost, times)


def test_array_forms_refuse_times_beyond_the_horizon():
    cost = ExperimentConfig.from_json(shipped_config_path()).build()[2]
    for times in (np.array([0, 1440]), np.array([-1, 0])):
        with pytest.raises(IndexError, match="beyond configured horizon"):
            cost.run_starts(times)
        with pytest.raises(IndexError, match="beyond configured horizon"):
            cost.stacked_quadratic_terms(times)


@pytest.mark.parametrize("make, own_forms", [
    (lambda: QuadraticTrackingCost(H=np.diag([1.0, 4.0]), target=np.array([1.0, -1.0])),
     True),
    (lambda: SwitchingQuadraticCost(np.diag([2.0, 1.0]), [[0.0, 0.0], [1.5, 3.0]],
                                    [0, 50]), False),
    (lambda: QuadraticSoftplusCost(H=np.eye(2), target=np.zeros(2),
                                   a=np.array([1.0, -1.0])), False),
], ids=["tracking", "switching", "softplus"])
def test_other_costs_array_forms_equal_scalar_forms(make, own_forms):
    # a cost that writes only the scalar forms gets CostFunction's loops
    cost = make()
    for name in ("run_starts", "stacked_quadratic_terms"):
        inherited = getattr(type(cost), name) is getattr(CostFunction, name)
        assert inherited != own_forms
    assert_array_forms_match_scalar_forms(cost, np.arange(120))


# ---------------------------------------------------------------- daily schedule

def test_hvac_schedule_night_weight_at_3am():
    cost = hvac_cost_schedule(p=3, m=5, day_steps=1440)
    W, _, _ = cost.params_at(180)  # 3 am
    assert_allclose(W, 0.1 * np.eye(3))
    W_day, _, _ = cost.params_at(370)  # just after 6 am
    assert_allclose(W_day, np.eye(3))


def test_hvac_schedule_setpoints_around_switch():
    cost = hvac_cost_schedule(p=3, m=5, day_steps=1440)
    _, _, sp_7am = cost.params_at(420)
    assert_allclose(sp_7am, 3.0 * np.ones(3))   # 18 - 15
    _, _, sp_10am = cost.params_at(600)
    assert_allclose(sp_10am, 6.0 * np.ones(3))  # 21 - 15


def test_hvac_schedule_price_mean_one():
    cost = hvac_cost_schedule(p=3, m=5, day_steps=1440)
    assert_allclose(cost.price_series.mean(), 1.0, atol=1e-12)
    assert np.all(cost.price_series > 0)


def test_hvac_schedule_rejects_nonpositive_price_knots():
    with pytest.raises(ValueError, match="positive"):
        hvac_cost_schedule(p=3, m=5, day_steps=96,
                           price_knots=[(0.0, 1.0), (12.0, -0.5), (24.0, 1.0)])


def test_piecewise_profile_knots_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        piecewise_linear_profile([(0.0, 1.0), (0.0, 2.0)], 10, 1.0)
