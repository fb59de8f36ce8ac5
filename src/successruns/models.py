"""Trial models and the probability-mass container shared across the package.

Two sequence models are supported: independent Bernoulli trials with success
probability p, and a two-state Markov chain where the success probability of
a trial depends on the previous outcome (alpha after a success, 1 - beta
after a failure) with a free first-trial probability p1.  All probabilities
must lie strictly inside (0, 1); boundary values collapse the chains into
degenerate cases the recursions are not written for, so they are rejected.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


class ConsistencyError(RuntimeError):
    """Two redundant computation paths disagreed beyond tolerance.

    Raised when internal cross-checks fail; indicates a defect (or a
    transcription problem in a formula under test), never a user error.
    """


def _check_open_unit(name: str, value) -> float:
    """`value` as a Python float, if it is a real number of any type,
    numpy's included, strictly inside (0, 1).

    A bool, a string, bytes, None and anything else that is not a real
    number is refused, so no caller ever parses text or reads True as 1.
    """
    real = isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)
    if not real or not 0.0 < float(value) < 1.0:
        raise ValueError(f"{name} must be a number strictly in (0, 1), got {value!r}")
    return float(value)


def _check_integer(name: str, value, least: int | None = 1) -> int:
    """`value` as a Python int, if it is an integer of any type, numpy's
    included, and at least `least` (any integer when `least` is None).

    A bool, a float (even 2.0) and anything else is refused, so no caller
    ever truncates an argument or reads True as 1.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if least is None:
        if not integer:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    elif not integer or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class IID:
    """Independent Bernoulli trials with success probability p."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_open_unit("p", self.p))

    @property
    def q(self) -> float:
        return 1.0 - self.p

    # IID(p) is the two-state chain that stays on a success with alpha = p
    # and on a failure with beta = q, started from p1 = p.  Engines that
    # take a chain read these and need no case of their own for IID.
    p1 = alpha = property(lambda self: self.p)
    q1 = beta = property(lambda self: self.q)


@dataclass(frozen=True)
class Markov:
    """Two-state chain: P(success | success) = alpha, P(failure | failure) = beta.

    p1 is the unconditional success probability of the first trial.  The
    stationary success probability is (1 - beta) / (2 - alpha - beta);
    ``Markov.stationary_start`` builds a chain launched from it.
    """

    p1: float
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "p1", _check_open_unit("p1", self.p1))
        object.__setattr__(self, "alpha", _check_open_unit("alpha", self.alpha))
        object.__setattr__(self, "beta", _check_open_unit("beta", self.beta))

    @property
    def q1(self) -> float:
        return 1.0 - self.p1

    @property
    def stationary(self) -> float:
        return (1.0 - self.beta) / (2.0 - self.alpha - self.beta)

    @classmethod
    def stationary_start(cls, alpha: float, beta: float) -> "Markov":
        p_stat = (1.0 - beta) / (2.0 - alpha - beta)
        return cls(p1=p_stat, alpha=alpha, beta=beta)


TrialModel = IID | Markov


class Pmf:
    """Finite probability mass table plus explicit unaccounted tail mass.

    ``probs[i]`` is the probability of value ``offset + i``.  ``tail`` holds
    whatever mass lies beyond the last tabulated value (zero for statistics
    with bounded support).  Entries within -1e-12 of zero are clamped to 0;
    anything more negative is a genuine defect and fails construction, as
    do a NaN entry or tail and a total that strays from 1 by more than 1e-9.
    """

    __slots__ = ("offset", "probs", "tail")

    def __init__(self, offset: int, probs, tail: float = 0.0):
        self.offset = _check_integer("offset", offset, least=0)
        arr = np.array(probs, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("probs must be one-dimensional")
        worst = arr.min() if arr.size else 1.0
        if not worst > 0.0:  # a zero (perhaps -0.0), negative or NaN entry
            if not worst >= -1e-12:  # the minimum is NaN if any entry is
                raise _entry_error(worst)
            np.clip(arr, 0.0, None, out=arr)
        self.probs = arr
        self.tail = _checked_tail(float(arr.sum()), float(tail))

    def p(self, value: int) -> float:
        """Probability of an exact value (0.0 outside the tabulated range).

        The value must pass the integer rule, with no floor.
        """
        i = _check_integer("value", value, least=None) - self.offset
        if 0 <= i < len(self.probs):
            return float(self.probs[i])
        return 0.0

    @property
    def support_end(self) -> int:
        """Largest tabulated value."""
        return self.offset + len(self.probs) - 1

    def mean(self) -> float:
        """Mean over the tabulated range (ignores tail mass)."""
        values = np.arange(self.offset, self.offset + len(self.probs))
        return float(values @ self.probs)

    def second_moment(self) -> float:
        """Second raw moment over the tabulated range (ignores tail mass)."""
        values = np.arange(self.offset, self.offset + len(self.probs))
        return float((values.astype(np.float64) ** 2) @ self.probs)

    def __repr__(self):
        return (
            f"Pmf(offset={self.offset}, len={len(self.probs)}, "
            f"tail={self.tail:.3e})"
        )


def _entry_error(worst) -> ValueError:
    """The error for a table whose smallest entry is worst, NaN or below
    -1e-12."""
    if np.isnan(worst):
        return ValueError("pmf entry nan is not a probability")
    return ValueError(f"pmf entry {float(worst)} below -1e-12; refusing to clamp")


def _checked_tail(mass: float, tail: float) -> float:
    """max(0, tail), once tail is at least -1e-12 and mass + max(0, tail)
    is within 1e-9 of 1, as Pmf requires of its tail and total."""
    if not tail >= -1e-12:  # a NaN fails it too
        raise ValueError(f"tail mass {tail} is below -1e-12 or NaN")
    tail = max(0.0, tail)
    total = mass + tail
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"pmf total {total!r} is not 1 within 1e-9")
    return tail


def _checked_mass(raw: np.ndarray, probs: np.ndarray) -> float:
    """Sum of probs after the tail and total checks of
    Pmf(offset, raw, tail=1 - raw's sum), whose probs they are.

    A caller whose raw needed no clamp may pass probs itself as raw, and
    the one sum serves both.
    """
    mass = float(probs.sum())
    _checked_tail(mass, 1.0 - (float(raw.sum()) if raw is not probs else mass))
    return mass


def _clamp_rows(table: np.ndarray, offsets) -> tuple[np.ndarray, int]:
    """Pmf's entry rule on every row of a table at once.

    Row i's entries are table[i, offsets[i]:].  Returns a copy of the table,
    zero before each offset and with entries in [-1e-12, 0) clamped to 0,
    and the index of the first row that Pmf refuses for a NaN entry or one
    below -1e-12 (the number of rows if none is); :func:`_entry_error` of
    that row's minimum is the error Pmf raises for it.  The tail and total
    checks are each row's own (:func:`_checked_mass`).
    """
    inside = np.arange(table.shape[1]) >= np.asarray(offsets)[:, None]
    probs = np.where(inside, table, 0.0)
    refused = ~(probs.min(axis=1, initial=0.0) >= -1e-12)  # NaN fails it too
    np.clip(probs, 0.0, None, out=probs)
    return probs, int(refused.argmax()) if refused.any() else len(table)


def tv_distance(a: Pmf, b: Pmf) -> float:
    """Total variation distance between two pmf tables.

    Aligns the supports, treating each table's tail as mass on a shared
    "beyond the horizon" point.  Meaningful when both were truncated at the
    same horizon, which is how the cross-validation suites use it.
    """
    lo = min(a.offset, b.offset)
    hi = max(a.support_end, b.support_end)
    width = hi - lo + 1
    pa = np.zeros(width)
    pb = np.zeros(width)
    pa[a.offset - lo : a.offset - lo + len(a.probs)] = a.probs
    pb[b.offset - lo : b.offset - lo + len(b.probs)] = b.probs
    return 0.5 * (float(np.abs(pa - pb).sum()) + abs(a.tail - b.tail))
