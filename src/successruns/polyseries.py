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

    def powers(self, emax: int) -> list["RationalGF"]:
        """[self**0, ..., self**emax], one product per power.

        ``__pow__`` multiplies the squares self**(2**i) into ``one()`` in
        ascending bit order, so self**e is self**(e - 2**t) times the square
        at e's top bit t, bit for bit; each power here is that one product.
        """
        emax = _check_integer("exponent emax", emax, least=0)
        squares = [self]
        while (1 << len(squares)) <= emax:
            squares.append(squares[-1] * squares[-1])
        out = [RationalGF.one()]
        for e in range(1, emax + 1):
            top = e.bit_length() - 1
            out.append(out[e - (1 << top)] * squares[top])
        return out

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
