"""Fractional polynomial transformation family.

The power set is S = {-2, -1, -0.5, 0, 0.5, 1, 2, 3}, with 0 denoting log x.
Degree-1 functions use a single power; degree-2 functions use an unordered
pair of powers, where a repeated pair (p, p) spans {x^p, x^p * log x}.
That gives 8 degree-1 and 36 degree-2 candidates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariableError, DomainError

FP_POWER_SET: tuple[float, ...] = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)


def format_power(p: float) -> str:
    return f"{p:g}"


@dataclass(frozen=True)
class FpPowers:
    """One or two exponents from the fractional polynomial power set, nondecreasing."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) not in (1, 2):
            raise DomainError(f"expected 1 or 2 powers, got {len(vals)}")
        for v in vals:
            if v not in FP_POWER_SET:
                raise DomainError(f"power {v} is not in the allowed set {FP_POWER_SET}")
        if len(vals) == 2 and vals[0] > vals[1]:
            vals = (vals[1], vals[0])
        object.__setattr__(self, "values", vals)

    @property
    def degree(self) -> int:
        return len(self.values)

    @property
    def repeated(self) -> bool:
        return len(self.values) == 2 and self.values[0] == self.values[1]

    def __iter__(self):
        return iter(self.values)

    def __contains__(self, p) -> bool:
        return float(p) in self.values

    def __str__(self) -> str:
        return "(" + ", ".join(format_power(p) for p in self.values) + ")"


@functools.cache
def enumerate_fp(degree: int) -> tuple[FpPowers, ...]:
    """All candidate power vectors of the given degree, in canonical order.

    Degree 1 yields the 8 single powers; degree 2 yields the 28 distinct pairs
    plus the 8 repeated pairs, 36 in total. Canonical order is lexicographic in
    the (nondecreasing) power values; ties in downstream searches are broken by
    this order. Built once per degree: every call returns the same tuple.
    """
    if degree == 1:
        return tuple(FpPowers((p,)) for p in FP_POWER_SET)
    if degree == 2:
        out = []
        for i, p1 in enumerate(FP_POWER_SET):
            for p2 in FP_POWER_SET[i:]:
                out.append(FpPowers((p1, p2)))
        return tuple(out)
    raise DomainError(f"degree must be 1 or 2, got {degree}")


def _power_column(x: np.ndarray, p: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        if p == 0.0:
            return np.log(x)
        return x ** p


def fp_basis(x, powers) -> np.ndarray:
    """Design columns of the fractional polynomial with the given powers.

    `x` must be strictly positive (apply a PreTransform first if needed).
    Power 0 maps to log x; a repeated pair (p, p) maps to {x^p, x^p log x}.
    Returns an (n, degree) array.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise DomainError("empty input")
    if np.any(x <= 0.0):
        raise DomainError("fractional polynomial basis requires strictly positive values")
    if not isinstance(powers, FpPowers):
        powers = FpPowers(tuple(np.atleast_1d(powers)))
    if powers.degree == 1:
        return _power_column(x, powers.values[0])[:, None]
    p1, p2 = powers.values
    first = _power_column(x, p1)
    if powers.repeated:
        second = first * np.log(x)
    else:
        second = _power_column(x, p2)
    return np.column_stack([first, second])


@functools.cache
def _candidate_blocks(first: int) -> dict[FpPowers, tuple[int, ...]]:
    """Every candidate of both degrees and its columns in `_basis` placed
    after `first` other columns: z^p, then z^p log z, p in `FP_POWER_SET` order."""
    column = {p: first + i for i, p in enumerate(FP_POWER_SET)}
    return {powers: tuple(column[p] + 8 * (j and powers.repeated) for j, p in enumerate(powers))
            for powers in enumerate_fp(1) + enumerate_fp(2)}


def _basis(z: np.ndarray, center_at: float | None) -> np.ndarray:
    """The columns z^p and z^p log z of `_candidate_blocks`, less their
    values at `center_at`, each candidate's equal to `fp_basis`'s bit for
    bit; an overflowed column is not finite."""
    first = [_power_column(z, p) for p in FP_POWER_SET]
    with np.errstate(all="ignore"):
        columns = np.column_stack(first + [col * first[FP_POWER_SET.index(0.0)] for col in first])
        if center_at is not None:
            center = np.array([center_at])
            columns = columns - np.concatenate(
                [fp_basis(center, FpPowers((p, p))) for p in FP_POWER_SET]).T.ravel()
    return columns


@functools.cache
def _basis_labels(variable: str) -> tuple[str, ...]:  # the labels of `_basis`
    return sum(zip(*(fp_basis_labels(variable, FpPowers((p, p))) for p in FP_POWER_SET)), ())


def fp_basis_labels(variable: str, powers: FpPowers) -> tuple[str, ...]:
    def one(p: float) -> str:
        return f"log({variable})" if p == 0.0 else f"{variable}^({format_power(p)})"

    if powers.degree == 1:
        return (one(powers.values[0]),)
    p1, p2 = powers.values
    if powers.repeated:
        return (one(p1), f"{one(p1)}*log({variable})")
    return (one(p1), one(p2))


@dataclass(frozen=True)
class PreTransform:
    """Affine map z = (x + shift) / scale making a covariate positive and decently scaled."""

    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0.0 and math.isfinite(self.scale) and math.isfinite(self.shift)):
            raise DomainError("shift must be finite and scale positive")

    def apply(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=float) + self.shift) / self.scale


def pretransform(x) -> PreTransform:
    """Deterministic, data-driven pre-transformation for a covariate.

    Shift: zero when all values are already positive; otherwise -min(x) + d,
    where d is the smallest positive gap between successive distinct order
    statistics. Scale: the power of ten nearest to the median of the shifted
    values, so the working variable has magnitude near 1. The result is part
    of the fitted model and must be applied verbatim to new data.
    """
    x = np.asarray(x, dtype=float)
    distinct = np.unique(x)
    if distinct.size < 2:
        raise DegenerateVariableError("constant column cannot be pre-transformed")
    if distinct[0] > 0.0:
        shift = 0.0
    else:
        gaps = np.diff(distinct)
        gaps = gaps[gaps > 0.0]
        delta = float(gaps.min()) if gaps.size else float(distinct[-1] - distinct[0]) / 100.0
        lo = float(distinct[0])
        shift = -lo + delta
        while lo + shift <= 0.0:  # delta can be rounded away next to a large |min|
            delta *= 2.0
            shift = -lo + delta
    shifted_median = float(np.median(x)) + shift
    exponent = math.floor(math.log10(shifted_median) + 0.5)
    largest = float(distinct[-1]) + shift
    while math.isinf(largest / 10.0 ** exponent):  # a tiny median would overflow the maximum
        exponent += 1
    smallest = float(distinct[0]) + shift
    while smallest / 10.0 ** exponent <= 0.0:  # a subnormal minimum would underflow to zero
        exponent -= 1
    return PreTransform(shift=shift, scale=10.0 ** exponent)
