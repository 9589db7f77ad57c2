import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ddcontrol.linalg as linalg_module
from ddcontrol.behavioral import build_hankel
from ddcontrol.controller import precompute
from ddcontrol.harness import ExperimentConfig, shipped_config_path
from ddcontrol.linalg import (RANK_RTOL, constrained_ridge_lstsq, factor,
                              numerical_rank, pinv)
from ddcontrol.plant import collect_offline_data

from helpers import coefficient_matrices, constrained_ls_kkt, rank_by_svd


def test_numerical_rank_against_svd_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        M = rng.normal(size=(8, 5))
        M[:, -1] = M[:, 0] + M[:, 1]          # force a rank drop
        assert numerical_rank(M) == rank_by_svd(M) == 4
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_pinv_penrose_conditions():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(6, 9))
    Mp = pinv(M)
    assert_allclose(M @ Mp @ M, M, atol=1e-10)
    assert_allclose(Mp @ M @ Mp, Mp, atol=1e-10)
    assert_allclose((M @ Mp).T, M @ Mp, atol=1e-10)
    assert_allclose((Mp @ M).T, Mp @ M, atol=1e-10)


def test_pinv_discards_projector_noise():
    # products with projectors leave singular values a few orders above
    # machine epsilon; the shared cutoff must not invert them
    rng = np.random.default_rng(2)
    H = rng.normal(size=(10, 25))
    P = np.eye(25) - pinv(H) @ H
    Q = np.vstack([np.eye(25), rng.normal(size=(5, 25))])
    W = Q @ P
    assert np.linalg.norm(pinv(W)) < 1e6


def test_nullspace_is_orthonormal_kernel():
    rng = np.random.default_rng(3)
    # square, so the economy SVD holds every right singular vector
    M = rng.normal(size=(7, 4)) @ rng.normal(size=(4, 7))
    Z = factor(M)[2]
    assert Z.shape == (7, 3)
    assert_allclose(Z.T @ Z, np.eye(3), atol=1e-12)
    assert np.linalg.norm(M @ Z) <= 1e-12


def test_constrained_ridge_lstsq_matches_kkt_oracle():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(7, 10))
    c = rng.normal(size=7)
    E = rng.normal(size=(3, 10))
    for lam in (0.0, 0.3, 10.0):
        w = constrained_ridge_lstsq(M, c, E, lam)
        w_star = constrained_ls_kkt(M, c, E, np.zeros(3), lam)
        assert_allclose(E @ w, np.zeros(3), atol=1e-10)
        assert_allclose(w, w_star, atol=1e-8)


@pytest.fixture(scope="module")
def offline_matrices() -> dict:
    """The matrices the shipped thermal day factors offline, and random ones."""
    config = ExperimentConfig.from_json(shipped_config_path())
    cc = config.controller
    model, _ = config.plant.build()
    data = collect_offline_data(
        model, config.offline.N, pe_order=3 * cc.n + cc.mu + 1,
        input_box=(config.offline.input_low, config.offline.input_high),
        seed=config.offline.seed)
    H_alpha, H_beta = coefficient_matrices(precompute(data, cc.n, cc.mu, cc.q_mode))
    rng = np.random.default_rng(6)
    deficient = rng.normal(size=(9, 4)) @ rng.normal(size=(4, 12))
    return {
        "H_alpha": H_alpha,
        "H_beta": H_beta,
        "H": np.vstack([build_hankel(data.inputs, cc.n + 1),
                        build_hankel(data.outputs, cc.n + 1)]),
        "tall": rng.normal(size=(11, 4)),
        "wide": rng.normal(size=(4, 11)),
        "rank-deficient": deficient,
        "rank-deficient, transposed": deficient.T,
        "0x5": np.zeros((0, 5)),
        "5x0": np.zeros((5, 0)),
    }


def test_pinv_is_bit_identical_to_numpy(offline_matrices):
    # the benchmark's golden check is in effect bit-exact, so the one
    # factorization must round exactly as np.linalg.pinv does
    for name, M in offline_matrices.items():
        expected = np.linalg.pinv(M, rcond=max(M.shape) * RANK_RTOL)
        assert np.array_equal(pinv(M), expected), name


def test_factor_rank_and_null_basis_follow_the_one_rule(offline_matrices):
    for name, M in offline_matrices.items():
        rank, _, Z, V_r, _, _ = factor(M)
        assert rank == numerical_rank(M), name
        assert_allclose(Z.T @ Z, np.eye(Z.shape[1]), atol=1e-12)
        scale = 1.0 + np.abs(M).max(initial=0.0)
        assert np.abs(M @ Z).max(initial=0.0) <= 1e-10 * scale, name
        # the row basis is complete and orthogonal to Z
        assert V_r.shape == (M.shape[1], rank), name
        assert_allclose(V_r.T @ V_r, np.eye(rank), atol=1e-12)
        assert np.abs(V_r.T @ Z).max(initial=0.0) <= 1e-12, name
        if M.shape[0] >= M.shape[1]:
            assert Z.shape == (M.shape[1], M.shape[1] - rank), name
            assert_allclose(V_r @ V_r.T + Z @ Z.T, np.eye(M.shape[1]),
                            atol=1e-12)


def test_factorizations_are_called_only_in_linalg():
    # one rank rule: every factorization of the package goes through
    # linalg; plant's ground-truth model checks keep numpy's matrix_rank
    allowed = {"svd": "linalg.py", "pinv": "linalg.py", "lstsq": "linalg.py",
               "matrix_rank": "plant.py"}
    call = re.compile(r"\b(?:np|numpy)\.linalg\.(\w+)")
    src = Path(__file__).resolve().parents[1] / "src" / "ddcontrol"
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        assert not re.search(r"from numpy(\.linalg)? import", text), path.name
        for name in call.findall(text):
            assert allowed.get(name, path.name) == path.name, \
                f"{path.name} calls np.linalg.{name}"


def test_every_public_linalg_function_has_a_caller_in_src():
    # linalg holds the rank rule for the package, not helpers for its tests:
    # each public function is called, through ``linalg.<name>`` or a name
    # imported from linalg, by another module of the package
    called = set()
    src = Path(linalg_module.__file__).parent
    for path in sorted(src.rglob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "linalg"
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "linalg":
                    called.add(f.attr)
                elif isinstance(f, ast.Name) and f.id in imported:
                    called.add(f.id)
    public = {name for name, f in inspect.getmembers(linalg_module, inspect.isfunction)
              if not name.startswith("_") and f.__module__ == linalg_module.__name__}
    assert public >= {"factor", "pinv", "numerical_rank", "constrained_ridge_lstsq"}
    assert public <= called, sorted(public - called)
