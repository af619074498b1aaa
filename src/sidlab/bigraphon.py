"""Finite step bigraphons: probability weights on rows/columns plus a value matrix.

A step bigraphon stands in for a bounded measurable kernel on a product of
probability spaces; rows carry the left space, columns the right space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class StepBigraphon:
    """Nonnegative value matrix with probability weights mu (rows), nu (cols)."""

    row_weights: np.ndarray
    col_weights: np.ndarray
    values: np.ndarray

    def __init__(self, row_weights, col_weights, values):
        mu = _freeze(row_weights)
        nu = _freeze(col_weights)
        w = _freeze(values)
        if mu.ndim != 1 or nu.ndim != 1 or w.shape != (mu.size, nu.size):
            raise ValueError("values must be a (len(mu), len(nu)) matrix")
        for vec in (mu, nu):
            if np.any(vec < 0) or abs(vec.sum() - 1.0) > WEIGHT_SUM_TOL:
                raise ValueError("weights must be nonnegative and sum to 1")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("values must be finite and nonnegative")
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
        w = np.asarray(values, dtype=float)
        m, n = w.shape
        return cls(np.full(m, 1.0 / m), np.full(n, 1.0 / n), w)

    @classmethod
    def constant(cls, p: float, rows: int = 1, cols: int = 1) -> "StepBigraphon":
        return cls.uniform(np.full((rows, cols), float(p)))

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

    def scaled(self, lam: float) -> "StepBigraphon":
        return StepBigraphon(self.row_weights, self.col_weights, lam * self.values)

    def with_values(self, values) -> "StepBigraphon":
        return StepBigraphon(self.row_weights, self.col_weights, values)


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
            if not (np.array_equal(w.row_weights, mu)
                    and np.array_equal(w.col_weights, nu)):
                raise ValueError("all bigraphons must share row/column weights")
        object.__setattr__(self, "parts", items)

    def __eq__(self, other) -> bool:
        return isinstance(other, BigraphonTuple) and self.parts == other.parts

    def __getitem__(self, color: int) -> StepBigraphon:
        for c, w in self.parts:
            if c == color:
                return w
        raise KeyError(f"no bigraphon for color {color}")

    def __contains__(self, color: int) -> bool:
        return any(c == color for c, _ in self.parts)

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
    """
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
