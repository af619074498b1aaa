"""Tests for step bigraphons, Sinkhorn biregularization, random generation."""

from collections import Counter

import numpy as np
import pytest
from test_batched import drawn_instances

from sidlab import testers
from sidlab.bigraph import cycle4, rho
from sidlab.bigraphon import (
    BigraphonTuple,
    SinkhornError,
    StepBigraphon,
    bigraphon_from_json,
    bigraphon_to_json,
    random_step_bigraphon,
    sinkhorn_biregularize,
)
from sidlab.density import colored_densities, left_regularize_tuple
from sidlab.fractional import fractional_densities, from_right_uniform
from sidlab.reflection import build_incidence


def test_validation():
    with pytest.raises(ValueError):
        StepBigraphon([0.5, 0.6], [1.0], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        StepBigraphon([1.0], [1.0], [[-1.0]])
    with pytest.raises(ValueError):
        StepBigraphon([1.0], [1.0], [[float("inf")]])
    with pytest.raises(ValueError):
        StepBigraphon([1.0], [0.5, 0.5], [[1.0]])


@pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")], ids=repr)
def test_a_non_finite_number_is_refused(x):
    for args in (([x], [1.0], [[0.5]]), ([1.0], [x], [[0.5]]), ([1.0], [1.0], [[x]]),
                 ([0.5, 0.5], [1.0], [[0.5], [x]])):
        with pytest.raises(ValueError, match="finite"):
            StepBigraphon(*args)
    for key, value in (("mu", [x]), ("nu", [x]), ("w", [[x]])):
        with pytest.raises(ValueError, match=f"step bigraphon '{key}' must be"):
            bigraphon_from_json({"mu": [1.0], "nu": [1.0], "w": [[0.5]], key: value})


def test_a_weight_past_the_float_range_is_refused_as_non_finite():
    with pytest.raises(ValueError, match="weights must be finite, nonnegative and sum to 1"):
        StepBigraphon([10**400], [1.0], [[0.5]])


def test_a_value_past_the_float_range_is_refused_as_non_finite():
    with pytest.raises(ValueError, match="values must be finite and nonnegative"):
        StepBigraphon([1.0], [1.0], [[10**400]])
    with pytest.raises(ValueError, match="values must be finite and nonnegative"):
        StepBigraphon.uniform([[0.5, -10**400]])
    with pytest.raises(ValueError, match="values must be finite and nonnegative"):
        StepBigraphon.constant(10**400, 2, 2)


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


def reference_sinkhorn(w, tol=1e-10, max_iter=10**5):
    """The Sinkhorn loop as first written: t(rho, W) recomputed as
    mu @ vals @ nu, and the result built through the checking constructor."""
    if np.any(w.values <= 0):
        raise SinkhornError("sinkhorn requires strictly positive values")
    mu, nu = w.row_weights, w.col_weights
    vals = np.array(w.values)
    for _ in range(max_iter):
        t = float(mu @ vals @ nu)
        rows = vals @ nu
        cols = mu @ vals
        if max(np.abs(rows - t).max(), np.abs(cols - t).max()) < tol:
            return w.with_values(vals)
        vals = vals * (t / rows)[:, None]
        t = float(mu @ vals @ nu)
        cols = mu @ vals
        vals = vals * (t / cols)[None, :]
    raise SinkhornError(f"no convergence to tol={tol} within {max_iter} iterations")


def sinkhorn_outcome(balance, w, max_iter):
    try:
        return balance(w, max_iter=max_iter)
    except SinkhornError as err:
        return str(err)


def test_sinkhorn_equals_the_first_loop_bit_for_bit():
    """320 draws of both presets, half of them 1 x n or n x 1 and a third
    with Dirichlet weights, balanced in full and under max_iter=4."""
    rng = np.random.default_rng(51)
    seen = Counter()
    for k in range(320):
        preset = ("uniform", "adversarial")[k % 2]
        rows, cols = (int(n) for n in rng.integers(2, 9, size=2))
        if k % 8 in (2, 3):
            rows = 1
        elif k % 8 in (4, 5):
            cols = 1
        vals, = testers._draw_values(rng, 1, rows, cols, preset)
        w = (StepBigraphon(rng.dirichlet(np.ones(rows)), rng.dirichlet(np.ones(cols)), vals)
             if k % 3 == 0 else StepBigraphon.uniform(vals))
        seen["1 x n" if rows == 1 else "n x 1" if cols == 1 else "n x m"] += 1
        for max_iter in (10**5, 4):
            new = sinkhorn_outcome(sinkhorn_biregularize, w, max_iter)
            old = sinkhorn_outcome(reference_sinkhorn, w, max_iter)
            if isinstance(old, str):
                assert new == old
                seen["refused"] += 1
            else:
                assert np.array_equal(new.values, old.values) and new == old
                seen["balanced"] += 1
    assert seen["1 x n"] == seen["n x 1"] == 80 and seen["balanced"] >= 320, seen
    assert seen["refused"] >= 20, seen


def sampled_bigraphons(monkeypatch, grid):
    """Every part `_sample_tuple` draws, every Sinkhorn result and every
    color-restriction part of a few seeded runs at this grid."""
    rng = np.random.default_rng(grid)
    drawn = Counter()
    for preset in ("uniform", "adversarial"):
        for colors in ((0,), (1, 2, 3)):
            for _ in range(10):
                for _, w in testers._sample_tuple(rng, grid, colors, preset).parts:
                    drawn["sampled"] += 1
                    yield w
        _, instances = drawn_instances(monkeypatch, "test_weak_domination", (cycle4(), rho()),
                                       grid=grid, trials=20, seed=3, preset=preset)
        for *_, w in instances:
            drawn["sinkhorn"] += 1
            yield w
    _, instances = drawn_instances(monkeypatch, "test_color_restriction_trials",
                                   (build_incidence(4, [2, 3]), [1]), grid=grid, trials=20,
                                   seed=3)
    for *_, ws in instances:
        for _, w in ws.parts:
            drawn["restricted"] += 1
            yield w
    assert drawn["sampled"] == 80 and drawn["sinkhorn"] >= 30 and drawn["restricted"] == 40


@pytest.mark.parametrize("grid", [1, 4, 8, 16])
def test_trusted_bigraphons_are_valid_and_frozen(monkeypatch, grid):
    """What the samplers and Sinkhorn build unchecked equals its rebuild
    through the checking constructor, and all three arrays are read-only."""
    for w in sampled_bigraphons(monkeypatch, grid):
        assert StepBigraphon(w.row_weights, w.col_weights, w.values) == w
        for array in (w.values, w.row_weights, w.col_weights):
            assert not array.flags.writeable


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


INCIDENCE = build_incidence(4, [2, 3])  # colors 1 and 2
# each site that reads a tuple's bigraphons by color, on a tuple of the given
# colors, and the first color it lacks; left-weak-Hoelder reads pair colors
# t * 3 + c, here 4 and 5
TUPLE_READERS = {
    "colored_densities": (lambda ws: colored_densities(
        INCIDENCE.graph, [INCIDENCE.colors], [ws]), (1,), 2),
    "left_regularize_tuple": (lambda ws: left_regularize_tuple(
        from_right_uniform(INCIDENCE), ws, 1), (1,), 2),
    "fractional_densities": (lambda ws: fractional_densities(
        from_right_uniform(INCIDENCE), [ws]), (1,), 2),
    "left-weak-holder": (lambda ws: testers.PROPERTIES["left-weak-holder"].margin(
        INCIDENCE, dict.fromkeys(INCIDENCE.graph.left, 1), ws), (4,), 5),
    "color-restriction": (lambda ws: testers.test_color_restriction(
        INCIDENCE, [1], ws), (1,), 2),
}


@pytest.mark.parametrize("site", list(TUPLE_READERS))
def test_a_tuple_missing_a_color_is_refused_by_name(site):
    read, colors, missing = TUPLE_READERS[site]
    ws = BigraphonTuple({c: StepBigraphon.constant(0.5, 2, 2) for c in colors})
    with pytest.raises(ValueError, match=f"^tuple missing bigraphon for color {missing}$"):
        read(ws)


def test_a_nonpositive_color_is_refused_before_a_later_missing_one():
    ws = BigraphonTuple({1: StepBigraphon.constant(0.0, 2, 2)})
    with pytest.raises(ValueError, match="^bigraphons must be strictly positive$"):
        left_regularize_tuple(from_right_uniform(INCIDENCE), ws, 1)
    with pytest.raises(ValueError, match="^bigraphon for dropped color 1 must be positive$"):
        testers.test_color_restriction(INCIDENCE, [], ws)


def test_json_round_trip():
    w = random_step_bigraphon(2, 3, seed=8)
    back = bigraphon_from_json(bigraphon_to_json(w))
    assert back == w and back is not w and hash(back) == hash(w)


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
