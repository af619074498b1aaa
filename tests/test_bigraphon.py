"""Tests for step bigraphons, Sinkhorn biregularization, random generation."""

import numpy as np
import pytest

from sidlab.bigraphon import (
    BigraphonTuple,
    SinkhornError,
    StepBigraphon,
    bigraphon_from_json,
    bigraphon_to_json,
    random_step_bigraphon,
    sinkhorn_biregularize,
)


def test_validation():
    with pytest.raises(ValueError):
        StepBigraphon([0.5, 0.6], [1.0], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        StepBigraphon([1.0], [1.0], [[-1.0]])
    with pytest.raises(ValueError):
        StepBigraphon([1.0], [1.0], [[float("inf")]])
    with pytest.raises(ValueError):
        StepBigraphon([1.0], [0.5, 0.5], [[1.0]])


def test_marginals_and_edge_density():
    w = StepBigraphon.uniform([[2.0, 1.0], [1.0, 2.0]])
    assert w.edge_density() == pytest.approx(1.5)
    assert np.allclose(w.row_marginals(), [1.5, 1.5])
    assert np.allclose(w.col_marginals(), [1.5, 1.5])
    assert w.is_biregular()
    skew = StepBigraphon.uniform([[1.0, 2.0], [3.0, 4.0]])
    assert not skew.is_biregular()
    assert skew.is_left_regular() is False


def test_values_immutable():
    w = StepBigraphon.constant(1.0, 2, 2)
    with pytest.raises(ValueError):
        w.values[0, 0] = 5.0


def test_sinkhorn_fixed_point():
    w = StepBigraphon.uniform([[2.0, 1.0], [1.0, 2.0]])
    out = sinkhorn_biregularize(w)
    assert out == w  # already biregular, t = 1.5


def test_sinkhorn_converges():
    w = StepBigraphon.uniform([[1.0, 2.0], [3.0, 4.0]])
    out = sinkhorn_biregularize(w, tol=1e-10)
    assert out.marginal_residual() < 1e-10
    assert np.all(out.values > 0)


def test_sinkhorn_random_and_nonuniform_weights():
    rng = np.random.default_rng(3)
    for trial in range(10):
        vals = rng.uniform(1e-3, 1.0, size=(4, 3))
        mu = rng.dirichlet(np.ones(4))
        nu = rng.dirichlet(np.ones(3))
        out = sinkhorn_biregularize(StepBigraphon(mu, nu, vals), tol=1e-11)
        assert out.marginal_residual() < 1e-11


def test_sinkhorn_normalized_densities_stay_finite():
    import math

    from sidlab.bigraph import cycle4
    from sidlab.density import density

    for seed in range(8):
        w = sinkhorn_biregularize(random_step_bigraphon(4, 4, seed=seed))
        ratio = density(cycle4(), w) / w.edge_density() ** 4
        assert math.isfinite(ratio) and ratio > 0


def test_sinkhorn_rejects_zero_entry():
    w = StepBigraphon.uniform([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(SinkhornError):
        sinkhorn_biregularize(w)


def test_sinkhorn_max_iter():
    w = StepBigraphon.uniform([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(SinkhornError):
        sinkhorn_biregularize(w, tol=1e-300, max_iter=3)


def test_random_step_bigraphon():
    a = random_step_bigraphon(3, 4, seed=42)
    b = random_step_bigraphon(3, 4, seed=42)
    assert a == b
    assert np.all(a.values >= 1e-3) and np.all(a.values <= 1.0)
    flat = random_step_bigraphon(2, 2, seed=1, floor=1.0)
    assert np.allclose(flat.values, 1.0)
    with pytest.raises(ValueError):
        random_step_bigraphon(0, 2, seed=1)


def test_tuple_shared_spaces():
    w1 = StepBigraphon.constant(1.0, 2, 2)
    w2 = StepBigraphon.constant(2.0, 2, 2)
    ws = BigraphonTuple({1: w1, 2: w2})
    assert ws.colors() == (1, 2)
    assert ws[2] == w2
    assert 1 in ws and 7 not in ws
    other_space = StepBigraphon.constant(1.0, 3, 2)
    with pytest.raises(ValueError):
        BigraphonTuple({1: w1, 2: other_space})
    with pytest.raises(KeyError):
        ws[9]


def test_json_round_trip():
    w = random_step_bigraphon(2, 3, seed=8)
    assert bigraphon_from_json(bigraphon_to_json(w)) == w


@pytest.mark.parametrize("key", ["mu", "nu", "w"])
@pytest.mark.parametrize("value", [{}, [], "x", [[0.5], [0.25, 0.25]], [0.5, "a"]],
                         ids=["object", "empty", "string", "ragged", "mixed"])
def test_json_decoder_names_the_bad_key(key, value):
    d = {**bigraphon_to_json(random_step_bigraphon(2, 1, seed=3)), key: value}
    with pytest.raises(ValueError, match=f"step bigraphon '{key}'"):
        bigraphon_from_json(d)


def test_json_decoder_checks_the_shape_of_w():
    d = bigraphon_to_json(random_step_bigraphon(2, 3, seed=4))
    for w in (d["w"][:1], [row[:2] for row in d["w"]], d["w"] + d["w"][:1]):
        with pytest.raises(ValueError, match="step bigraphon 'w'"):
            bigraphon_from_json({**d, "w": w})
