import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ddcontrol.behavioral import (Trajectory, block_rows, build_hankel,
                                  build_hankel_set, membership_residual,
                                  persistency_check)
from ddcontrol.controller import precompute
from ddcontrol.errors import PersistencyError
from ddcontrol.plant import simulate

from helpers import coefficient_matrices, hankel_by_index, rank_by_svd


# ---------------------------------------------------------------- containers

def test_trajectory_validation():
    with pytest.raises(ValueError, match="equal length"):
        Trajectory(np.zeros((3, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="at least one"):
        Trajectory(np.zeros((0, 1)), np.zeros((0, 1)))
    traj = Trajectory(np.ones((4, 2)), np.zeros((4, 1)))
    assert (traj.N, traj.m, traj.p) == (4, 2, 1)


# ---------------------------------------------------------------- build_hankel

def test_hankel_scalar_examples():
    H = build_hankel([1.0, 2.0, 3.0, 4.0], 2)
    assert_allclose(H, [[1, 2, 3], [2, 3, 4]])
    single = build_hankel([1.0, 2.0, 3.0], 3)
    assert_allclose(single, [[1], [2], [3]])


def test_hankel_vector_example_against_index_oracle():
    z = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    H = build_hankel(z, 2)
    assert_allclose(H, [[1, 0], [0, 1], [0, 1], [1, 1]])
    assert_allclose(H, hankel_by_index(z, 2))


def test_hankel_depth_out_of_range():
    for L in (0, 5, -1):
        with pytest.raises(ValueError, match="depth out of range"):
            build_hankel([1.0, 2.0, 3.0, 4.0], L)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_hankel_structure_property(N, q, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(N, q))
    L = int(rng.integers(1, N + 1))
    H = build_hankel(z, L)
    assert H.shape == (q * L, N - L + 1)
    for i in range(L):
        for j in range(N - L + 1):
            assert_allclose(H[i * q:(i + 1) * q, j], z[i + j])


def test_hankel_shift_consistency():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(11, 2))
    L = 4
    shifted = build_hankel(z[1:], L)
    deeper = build_hankel(z, L + 1)
    assert_allclose(shifted, deeper[2:, :])


# ---------------------------------------------------------------- block_rows

def test_block_rows_examples():
    H = build_hankel([1.0, 2.0, 3.0, 4.0], 2)
    assert_allclose(block_rows(H, 1, 2, 2), [[2, 3, 4]])
    assert_allclose(block_rows(H, 1, 1, 2), H)
    Hv = build_hankel(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 2)
    assert_allclose(block_rows(Hv, 2, 2, 2), hankel_by_index(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 2)[2:4])


def test_block_rows_out_of_range():
    H = build_hankel([1.0, 2.0, 3.0, 4.0], 2)
    for a, b in [(0, 1), (1, 3), (2, 1)]:
        with pytest.raises(IndexError):
            block_rows(H, 1, a, b)


# ---------------------------------------------------------------- persistency

def test_persistency_constant_sequence():
    u = np.full(10, 3.0)
    assert persistency_check(u, 1) is True
    assert persistency_check(u, 2) is False


def test_persistency_zero_sequence():
    for L in (1, 2, 5):
        assert persistency_check(np.zeros(12), L) is False


def test_persistency_random_sequence_matches_rank_oracle():
    rng = np.random.default_rng(42)
    u = rng.uniform(-1.0, 1.0, 20)
    L = 5
    H = hankel_by_index(u, L)
    assert rank_by_svd(H) == L            # oracle says full rank
    assert persistency_check(u, L) is True


def test_persistency_short_sequence_is_false():
    assert persistency_check(np.ones(3), 4) is False
    assert persistency_check(np.ones(3), 0) is False


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6))
def test_persistency_monotone(seed, L):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(20, 2))
    if persistency_check(u, L):
        for Lp in range(1, L):
            assert persistency_check(u, Lp)


# ---------------------------------------------------------------- membership

def test_membership_window_of_data(siso_data):
    cand = Trajectory(siso_data.inputs[7:16], siso_data.outputs[7:16])
    assert membership_residual(siso_data, cand) <= 1e-10


def test_membership_scaled_trajectory(siso_data):
    cand = Trajectory(siso_data.inputs[3:11], siso_data.outputs[3:11])
    scaled = Trajectory(2.0 * cand.inputs, 2.0 * cand.outputs)
    assert membership_residual(siso_data, scaled) <= 1e-10


def test_membership_perturbed_trajectory(siso_model, siso_data):
    rng = np.random.default_rng(5)
    traj = simulate(siso_model, np.zeros(1), rng.uniform(-1, 1, (8, 1)))
    assert membership_residual(siso_data, traj) <= 1e-9
    bad_outputs = traj.outputs.copy()
    bad_outputs[4, 0] += 1.0
    bad = Trajectory(traj.inputs, bad_outputs)
    assert membership_residual(siso_data, bad) > 0.1


def test_membership_fresh_simulations(siso_model, siso_data):
    rng = np.random.default_rng(11)
    for _ in range(5):
        x0 = rng.normal(size=1)
        traj = simulate(siso_model, x0, rng.uniform(-1, 1, (6, 1)))
        assert membership_residual(siso_data, traj, n=1) <= 1e-9


def test_membership_channel_mismatch(siso_data):
    bad = Trajectory(np.zeros((4, 2)), np.zeros((4, 1)))
    with pytest.raises(ValueError, match="channel mismatch"):
        membership_residual(siso_data, bad)


def test_membership_pe_precondition(siso_model):
    short = simulate(siso_model, np.zeros(1), np.ones((8, 1)))  # constant input
    cand = Trajectory(short.inputs[:3], short.outputs[:3])
    with pytest.raises(PersistencyError):
        membership_residual(short, cand, n=1)


# ---------------------------------------------------------------- hankel set

def test_hankel_set_shapes_and_blocks():
    rng = np.random.default_rng(1)
    m, p, n, mu, N = 2, 1, 2, 3, 40
    data = Trajectory(rng.normal(size=(N, m)), rng.normal(size=(N, p)))
    U, Y = build_hankel_set(data, n, mu)
    depth = 2 * n + mu + 1
    cols = N - 2 * n - mu
    assert U.shape == (m * depth, cols)
    assert Y.shape == (p * depth, cols)
    # the controller stacks its two systems from these blocks
    hs = precompute(data, n, mu, "identity")
    H_alpha, H_beta = coefficient_matrices(hs)
    assert_allclose(hs.U, U)
    assert_allclose(hs.Y_next, block_rows(Y, p, n + 1, n + 1))
    assert H_alpha.shape == (m * depth + p * n, cols)
    assert H_beta.shape == (m * (2 * n + 1) + p * 2 * n, cols)
    # row blocks are literal copies of the Hankel block rows
    assert_allclose(H_alpha[:m * n], block_rows(hs.U, m, 1, n))
    assert_allclose(H_alpha[m * n:m * depth],
                    block_rows(hs.U, m, n + 1, depth))
    assert_allclose(H_alpha[m * depth:], block_rows(Y, p, 1, n))
    assert_allclose(H_beta[:m * n], block_rows(hs.U, m, 1, n))
    assert_allclose(H_beta[m * n:m * (2 * n + 1)],
                    block_rows(hs.U, m, n + mu + 1, depth))
    assert_allclose(H_beta[m * (2 * n + 1):m * (2 * n + 1) + p * n],
                    block_rows(Y, p, 1, n))
    assert_allclose(H_beta[m * (2 * n + 1) + p * n:],
                    block_rows(Y, p, n + mu + 1, 2 * n + mu))


def test_hankel_set_too_short():
    data = Trajectory(np.ones((5, 1)), np.ones((5, 1)))
    with pytest.raises(ValueError, match="too short"):
        build_hankel_set(data, 2, 3)

