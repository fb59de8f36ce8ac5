"""Dense univariate polynomials and rational generating functions.

Coefficients are float64, stored in ascending order of the exponent, so
``Poly((1.0, 0.0, 3.0))`` is ``1 + 3*z**2``.  Rational functions keep their
numerator and denominator as separate dense polynomials with the denominator
normalized to constant term 1; no gcd cancellation is attempted, so degrees
can grow under arithmetic.  That is deliberate: cancellation with inexact
coefficients is where silent corruption creeps in, and the series extraction
below only ever needs the normalized coefficient arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .models import _check_integer


def _trim(coeffs: Iterable[float]) -> tuple[float, ...]:
    """Drop trailing coefficients that are exactly 0.0 (never near-zeros)."""
    out = list(float(c) for c in coeffs)
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    if not out:
        out = [0.0]
    return tuple(out)


@dataclass(frozen=True)
class Poly:
    """Dense polynomial in one variable, ascending coefficients."""

    coeffs: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @classmethod
    def term(cls, coeff: float, power: int) -> "Poly":
        """coeff * z**power as a Poly."""
        power = _check_integer("power", power, least=0)
        return cls((0.0,) * power + (float(coeff),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> float:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else 0.0

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        out = [0.0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0.0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        if len(self.coeffs) == 1:
            return Poly((0.0,))
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)


class Moments(NamedTuple):
    """Values of g(1), g'(1) and g''(1) for a generating function g."""

    mass: float
    mean: float
    second_factorial: float


@dataclass(frozen=True)
class RationalGF:
    """Ratio of two dense polynomials, den normalized to constant term 1.

    A denominator with zero constant term has no power-series expansion at the
    origin and is rejected outright.
    """

    num: Poly
    den: Poly = Poly((1.0,))

    def __post_init__(self):
        d0 = self.den[0]
        if d0 == 0.0:
            raise ValueError(
                "denominator has zero constant term; no series expansion at z=0"
            )
        if d0 != 1.0:
            object.__setattr__(self, "num", Poly(tuple(c / d0 for c in self.num.coeffs)))
            object.__setattr__(self, "den", Poly(tuple(c / d0 for c in self.den.coeffs)))

    @classmethod
    def one(cls) -> "RationalGF":
        return cls(Poly((1.0,)), Poly((1.0,)))

    def __add__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalGF":
        return RationalGF(-self.num, self.den)

    def __sub__(self, other: "RationalGF") -> "RationalGF":
        return self + (-other)

    def __mul__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(self.num * other.num, self.den * other.den)

    def __pow__(self, e: int) -> "RationalGF":
        e = _check_integer("exponent", e, least=0)
        result = RationalGF.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __call__(self, z: float) -> float:
        return self.num(z) / self.den(z)

    def series(self, nmax: int) -> list[float]:
        """Power-series coefficients c_0..c_nmax of num/den.

        The denominator induces the linear recurrence
        c_n = num_n - sum_{j>=1} den_j * c_{n-j}, which is what gets run here;
        cost is O(nmax * deg(den)).
        """
        nmax = _check_integer("horizon nmax", nmax, least=0)
        num, den = self.num.coeffs, self.den.coeffs
        c = [0.0] * (nmax + 1)
        for n in range(nmax + 1):
            acc = num[n] if n < len(num) else 0.0
            for j in range(1, min(n, len(den) - 1) + 1):
                acc -= den[j] * c[n - j]
            c[n] = acc
        return c

    def moments_at_one(self) -> Moments:
        """Mass, mean and second factorial moment of the series, from z=1.

        For a probability generating function g these are g(1), g'(1) and
        g''(1); the second raw moment is then g''(1) + g'(1).  Raises if the
        denominator vanishes at z=1 (the series has no finite moments there).
        """
        n, d = self.num, self.den
        d1 = d(1.0)
        if abs(d1) < 1e-12:
            raise ValueError(
                "denominator has a root at z=1; moments diverge"
            )
        n1, dp1 = n(1.0), d.derivative()(1.0)
        np1 = n.derivative()(1.0)
        npp1 = n.derivative().derivative()(1.0)
        dpp1 = d.derivative().derivative()(1.0)
        mass = n1 / d1
        mean = (np1 * d1 - n1 * dp1) / d1**2
        second = (
            npp1 * d1**2 - n1 * dpp1 * d1 - 2.0 * np1 * dp1 * d1 + 2.0 * n1 * dp1**2
        ) / d1**3
        return Moments(mass=mass, mean=mean, second_factorial=second)


def _cut(f: RationalGF, width: int) -> np.ndarray:
    """Numerator and denominator of f, cut or zero-padded to width, as a
    (width, 2, 1) array: coefficient index first, as in :func:`_mul_cut`."""
    out = np.zeros((width, 2, 1))
    for row, coeffs in enumerate((f.num.coeffs, f.den.coeffs)):
        used = min(width, len(coeffs))
        out[:used, row, 0] = coeffs[:used]
    return out


def _mul_cut(
    left: np.ndarray, right: np.ndarray, lengths: tuple[int, int]
) -> np.ndarray:
    """Products of left's polynomials with right's, cut to their width.

    Both are (width, 2, rows) arrays, coefficient index first, with
    numerators and denominators side by side, and one of them may have a
    single row, which every row of the other multiplies; their coefficients
    past lengths[0] and lengths[1] are zero.  Coefficient m sums
    left_i * right_(m-i) over ascending i from +0.0, the order
    :meth:`Poly.__mul__` adds them in.  A term with a zero factor is a
    signed zero, and adding it or leaving it out changes no sum.  The
    working set is one block the size of the output per left coefficient.
    """
    width = left.shape[0]
    out = np.zeros((width, 2, max(left.shape[2], right.shape[2])))
    for i in range(min(lengths[0], width)):
        used = min(lengths[1], width - i)
        tail = out[i : i + used]
        tail += left[i] * right[:used]
    return out


def ladder_series(h: RationalGF, a: RationalGF, emax: int, nmax: int) -> np.ndarray:
    """Row e of the (emax + 1, nmax + 1) result is (h * a**e).series(nmax),
    bit for bit, for e = 0..emax.

    Coefficients past nmax never reach one at or below it, so every power
    and product is cut to nmax + 1 coefficients.  :meth:`RationalGF.__pow__`
    multiplies the squares a**(2**i) into ``one()`` in ascending bit order,
    so a**e is a**(e - 2**t) times the square a**(2**t), t the top bit of
    e, bit for bit.  The powers pair that way here, so all e with one top
    bit are one batched product: a**0..a**(2**t) times a**(2**t), whose
    last row is the square a**(2**(t+1)) for the next bit.  Taking
    a**(2**t) from its row changes no bit: that row is 1 * a**(2**t), and a
    product never holds a -0.0.  h times every power is one more batched
    product, and the series recurrence runs once for all rows: c_n = num_n
    - den_1 * c_(n-1) - den_2 * c_(n-2) - ..., subtracted in that order, as
    :meth:`RationalGF.series` runs it.  This holds while the coefficients
    stay finite; past float64's range numpy warns of the overflow.
    """
    emax = _check_integer("exponent emax", emax, least=0)
    nmax = _check_integer("horizon nmax", nmax, least=0)
    width = nmax + 1
    powers = np.zeros((width, 2, emax + 1))  # [n, numerator|denominator, e]
    powers[0, :, 0] = 1.0
    if emax:
        powers[:, :, 1:2] = _cut(a, width)
    degree = max(len(a.num.coeffs), len(a.den.coeffs)) - 1  # a**e's is <= e * degree
    top = 1
    while top <= emax:
        rows = min(top + 1, emax + 1 - top)  # a**0..a**(rows-1) times a**top
        square = powers[:, :, top : top + 1]
        powers[:, :, top : top + rows] = _mul_cut(
            powers[:, :, :rows], square, ((rows - 1) * degree + 1, top * degree + 1)
        )
        top *= 2
    terms = max(len(h.num.coeffs), len(h.den.coeffs))
    product = _mul_cut(_cut(h, width), powers, (terms, emax * degree + 1))
    # c_n goes to row nmax - n, so step n multiplies den_0..den_n (den_0 is
    # exactly 1.0, a product of normalized denominators) into rows
    # nmax-n..nmax, which hold num_n, then c_(n-1), ..., c_0, and subtracts
    # the products from the first in order
    rev, den = product[::-1, 0].copy(), product[:, 1]
    work = np.empty_like(rev)
    for n in range(1, width):
        step = work[: n + 1]
        np.multiply(den[: n + 1], rev[width - 1 - n :], out=step)
        np.subtract.reduce(step, axis=0, out=rev[width - 1 - n])
    return np.ascontiguousarray(rev[::-1].T)
