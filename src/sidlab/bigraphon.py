"""Finite step bigraphons: probability weights on rows/columns plus a value matrix.

A step bigraphon stands in for a bounded measurable kernel on a product of
probability spaces; rows carry the left space, columns the right space.

A bigraphon is checked where its data enters: the `StepBigraphon`
constructor (and so `uniform`, `constant` and `with_values`) and
`bigraphon_from_json` copy every array and check shapes, weights that are
nonnegative and sum to 1, and values that are finite and nonnegative.
Values sidlab computes itself skip the check and the copies: the testers'
samplers draw them from [floor, 1] or as floor/1 patterns, the
color-restriction sampler divides such a draw by its positive row
marginals, and Sinkhorn multiplies a strictly positive input by positive
scale factors and returns only once every marginal residual is finite and
below its tolerance. These go through `_trusted`, which freezes the fresh
values array in place and pairs it with weights that were checked before:
the input's own, or the uniform vector of its size, built once through the
constructor and shared by every trusted bigraphon of that size. Parts that
hold the same weight objects form a `BigraphonTuple` without comparing
their weights.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .schema import check

__all__ = [
    "StepBigraphon",
    "BigraphonTuple",
    "SinkhornError",
    "sinkhorn_biregularize",
    "random_step_bigraphon",
    "bigraphon_to_json",
    "bigraphon_from_json",
]

WEIGHT_SUM_TOL = 1e-12


class SinkhornError(RuntimeError):
    """Raised when biregularization cannot run or does not converge."""


_WEIGHTS = "weights must be finite, nonnegative and sum to 1"
_VALUES = "values must be finite and nonnegative"


def _freeze(a: np.ndarray, refusal: str) -> np.ndarray:
    try:
        out = np.array(a, dtype=float)
    except OverflowError:  # an int past the float range
        raise ValueError(refusal) from None
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class StepBigraphon:
    """Nonnegative value matrix with probability weights mu (rows), nu (cols)."""

    row_weights: np.ndarray
    col_weights: np.ndarray
    values: np.ndarray

    def __init__(self, row_weights, col_weights, values):
        mu = _freeze(row_weights, _WEIGHTS)
        nu = _freeze(col_weights, _WEIGHTS)
        w = _freeze(values, _VALUES)
        if mu.ndim != 1 or nu.ndim != 1 or w.shape != (mu.size, nu.size):
            raise ValueError("values must be a (len(mu), len(nu)) matrix")
        for vec in (mu, nu):
            # NaN fails every comparison, and inf the sum
            if not (np.all(vec >= 0) and abs(vec.sum() - 1.0) <= WEIGHT_SUM_TOL):
                raise ValueError(_WEIGHTS)
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError(_VALUES)
        object.__setattr__(self, "row_weights", mu)
        object.__setattr__(self, "col_weights", nu)
        object.__setattr__(self, "values", w)

    def __eq__(self, other) -> bool:
        return (isinstance(other, StepBigraphon)
                and np.array_equal(self.row_weights, other.row_weights)
                and np.array_equal(self.col_weights, other.col_weights)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.row_weights.tobytes(), self.col_weights.tobytes(),
                     self.values.tobytes()))

    @property
    def rows(self) -> int:
        return self.row_weights.size

    @property
    def cols(self) -> int:
        return self.col_weights.size

    @classmethod
    def uniform(cls, values) -> "StepBigraphon":
        w = _freeze(values, _VALUES)
        m, n = w.shape
        return cls(np.full(m, 1.0 / m), np.full(n, 1.0 / n), w)

    @classmethod
    def constant(cls, p: float, rows: int = 1, cols: int = 1) -> "StepBigraphon":
        return cls.uniform([[p] * cols] * rows)

    def edge_density(self) -> float:
        """t(rho, W)."""
        return float(self.row_weights @ self.values @ self.col_weights)

    def row_marginals(self) -> np.ndarray:
        """x -> integral of W(x, .) over the column space."""
        return self.values @ self.col_weights

    def col_marginals(self) -> np.ndarray:
        return self.row_weights @ self.values

    def marginal_residual(self) -> float:
        t = self.edge_density()
        return float(max(np.abs(self.row_marginals() - t).max(initial=0.0),
                         np.abs(self.col_marginals() - t).max(initial=0.0)))

    def is_left_regular(self, tol: float = 1e-9) -> bool:
        return bool(np.abs(self.row_marginals() - self.edge_density()).max(initial=0.0) < tol)

    def is_biregular(self, tol: float = 1e-9) -> bool:
        return self.marginal_residual() < tol

    def with_values(self, values) -> "StepBigraphon":
        return StepBigraphon(self.row_weights, self.col_weights, values)


@functools.lru_cache(maxsize=256)
def _uniform_weights(n: int) -> np.ndarray:
    """The frozen uniform probability vector of length n, built once through
    the checking constructor and shared by every trusted bigraphon."""
    return StepBigraphon.uniform(np.ones((n, 1))).row_weights


def _trusted(values: np.ndarray, row_weights: Optional[np.ndarray] = None,
             col_weights: Optional[np.ndarray] = None) -> StepBigraphon:
    """A StepBigraphon from a fresh float array of values that are valid by
    construction, unchecked and uncopied: values is frozen in place, and
    missing weights are the shared uniform vectors of its size. Weights
    that are given must come from a checked bigraphon."""
    values.setflags(write=False)
    w = object.__new__(StepBigraphon)
    object.__setattr__(w, "row_weights", _uniform_weights(values.shape[0])
                       if row_weights is None else row_weights)
    object.__setattr__(w, "col_weights", _uniform_weights(values.shape[1])
                       if col_weights is None else col_weights)
    object.__setattr__(w, "values", values)
    return w


@dataclass(frozen=True, eq=False)
class BigraphonTuple:
    """Bigraphons indexed by color id, all over the same row/column spaces."""

    parts: tuple[tuple[int, StepBigraphon], ...]

    def __init__(self, parts: Mapping[int, StepBigraphon]):
        items = tuple(sorted((int(c), w) for c, w in parts.items()))
        if not items:
            raise ValueError("tuple needs at least one bigraphon")
        mu, nu = items[0][1].row_weights, items[0][1].col_weights
        for _, w in items[1:]:
            if w.row_weights is mu and w.col_weights is nu:
                continue  # the same weight objects, as trusted parts share them
            if not (np.array_equal(w.row_weights, mu)
                    and np.array_equal(w.col_weights, nu)):
                raise ValueError("all bigraphons must share row/column weights")
        object.__setattr__(self, "parts", items)
        object.__setattr__(self, "_by_color", dict(items))

    def __eq__(self, other) -> bool:
        return isinstance(other, BigraphonTuple) and self.parts == other.parts

    def __getitem__(self, color: int) -> StepBigraphon:
        if color not in self._by_color:
            raise KeyError(f"no bigraphon for color {color}")
        return self._by_color[color]

    def __contains__(self, color: int) -> bool:
        return color in self._by_color

    def _values(self, colors: Iterable[int]) -> list[np.ndarray]:
        """The value matrices of `colors`, in order; ValueError names the
        first color the tuple lacks."""
        try:
            return [self._by_color[c].values for c in colors]
        except KeyError as missing:
            raise ValueError(f"tuple missing bigraphon for color {missing.args[0]}") from None

    def colors(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.parts)

    @property
    def row_weights(self) -> np.ndarray:
        return self.parts[0][1].row_weights

    @property
    def col_weights(self) -> np.ndarray:
        return self.parts[0][1].col_weights

    def as_dict(self) -> dict[int, StepBigraphon]:
        return dict(self.parts)


def sinkhorn_biregularize(w: StepBigraphon, tol: float = 1e-10,
                          max_iter: int = 10**5) -> StepBigraphon:
    """Alternating row-first scaling until both marginals equal t(rho, W).

    Each step rescales toward the current edge density, which every step
    preserves, so an already-biregular input is returned unchanged.
    Raises SinkhornError on nonpositive entries or non-convergence.

    t(rho, W) = mu @ vals @ nu is taken as cols @ nu from the column marginals
    cols = mu @ vals, the same floats. A residual test max|r - t| < tol is made
    as max(r) - t < tol and t - min(r) < tol, which agree because rounding a
    difference is monotone; a nan marginal fails both. The result is
    nonnegative, and finite because a non-finite entry makes a residual nan or
    infinite, which never passes the check, so it is built unchecked.
    """
    if np.any(w.values <= 0):
        raise SinkhornError("sinkhorn requires strictly positive values")
    mu, nu = w.row_weights, w.col_weights
    vals = np.array(w.values)
    top, low = np.maximum.reduce, np.minimum.reduce
    for _ in range(max_iter):
        rows, cols = vals @ nu, mu @ vals
        t = float(cols @ nu)
        if (top(rows) - t < tol and t - low(rows) < tol
                and top(cols) - t < tol and t - low(cols) < tol):
            return _trusted(vals, mu, nu)
        vals = vals * (t / rows)[:, None]
        cols = mu @ vals
        vals = vals * (float(cols @ nu) / cols)
    raise SinkhornError(f"no convergence to tol={tol} within {max_iter} iterations")


def random_step_bigraphon(rows: int, cols: int, seed: int,
                          floor: float = 1e-3) -> StepBigraphon:
    """Uniform weights; values i.i.d. uniform on [floor, 1] from a PCG64 stream."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    rng = np.random.default_rng(seed)
    vals = rng.uniform(floor, 1.0, size=(rows, cols))
    return StepBigraphon.uniform(vals)


def bigraphon_to_json(w: StepBigraphon) -> dict:
    return {"mu": w.row_weights.tolist(), "nu": w.col_weights.tolist(),
            "w": w.values.tolist()}


def bigraphon_from_json(d: Mapping) -> StepBigraphon:
    """Decode the "step bigraphon" format of `schema`, {"mu", "nu", "w"}:
    mu and nu nonempty number lists, w a len(mu) by len(nu) list of number
    lists. A value of the wrong type or shape raises ValueError naming its key."""
    check("step bigraphon", d)
    mu, nu, w = d["mu"], d["nu"], d["w"]
    for key in ("mu", "nu"):
        if not d[key]:
            raise ValueError(f"step bigraphon {key!r} must not be empty")
    if len(w) != len(mu) or any(len(row) != len(nu) for row in w):
        raise ValueError("step bigraphon 'w' must be a len(mu) by len(nu) matrix")
    return StepBigraphon(mu, nu, w)
