"""Generalized Fibonacci numbers of order k and their closed forms.

The order-k sequence starts f_1 = 1 and satisfies
f_i = f_{i-1} + f_{i-2} + ... + f_{i-k}, with f_i = 0 for i <= 0.  For k = 2
this is the ordinary Fibonacci sequence 1, 1, 2, 3, 5, ...; for k = 1 it is
constantly 1.  Two closed forms are provided, both summing residue-weighted
powers of the characteristic roots of x^k - x^{k-1} - ... - 1; they evaluate
the same numbers through different weight expressions and are kept separate
so they can be checked against each other and the exact recurrence.
"""

from __future__ import annotations

import numpy as np

from .models import _check_integer

_INT64_MAX = 2**63 - 1

_MAX_ORDER = 32

# per-order cache of f_1..f_m computed so far
_fib_cache: dict[int, list[int]] = {}


def fib_k(k: int, n: int) -> int:
    """Exact n-th generalized Fibonacci number of order k.

    Parameters
    ----------
    k : int
        Order of the recurrence, 1 <= k <= 32.
    n : int
        1-based index into the sequence.

    Raises
    ------
    OverflowError
        If the exact value does not fit in a signed 64-bit integer.
    """
    k = _check_integer("order k", k)
    if k > _MAX_ORDER:
        raise ValueError(f"order k must be in [1, {_MAX_ORDER}], got {k}")
    n = _check_integer("index n", n)
    seq = _fib_cache.setdefault(k, [1])
    while len(seq) < n:
        i = len(seq)  # next value is f_{i+1}, 0-based position i
        lo = max(0, i - k)
        val = sum(seq[lo:i])
        if val > _INT64_MAX:
            raise OverflowError(
                f"fib_k({k}, {n}) exceeds the signed 64-bit range at index {i + 1}"
            )
        seq.append(val)
    return seq[n - 1]


def _charpoly_value(k: int, x: complex) -> complex:
    """x^k - x^{k-1} - ... - x - 1 by Horner."""
    acc = complex(1.0)
    for _ in range(k):
        acc = acc * x - 1.0
    return acc


def _charpoly_derivative(k: int, x: complex) -> complex:
    acc = complex(0.0)
    coeffs = [1.0] + [-1.0] * k  # descending: x^k - x^{k-1} - ... - 1
    for i, c in enumerate(coeffs[:-1]):
        power = k - i
        acc = acc * x + c * power
    return acc


def _term_scale(k: int, x: complex) -> float:
    """sum_{i<=k} |x|^i: the size of the terms the polynomial's value sums."""
    r = abs(x)
    return sum(r**i for i in range(k + 1))


def char_roots(k: int) -> np.ndarray:
    """All k roots of x^k - x^{k-1} - ... - 1, dominant real root first.

    The dominant root is real, lies in (1, 2), and is polished by Newton
    iteration to residual below 1e-13 * sum_{i<=k} |x|^i.  Evaluating the
    polynomial rounds each of its terms, so that sum sets the smallest
    residual float64 can reach: near x = 2 it grows like 2^(k+1).
    Remaining roots follow in a fixed deterministic order.  Raises if any
    root fails its residual check, 1e-10 on the same scale.
    """
    k = _check_integer("order k", k, least=2)
    if k > _MAX_ORDER:
        raise ValueError(f"order k must be in [2, {_MAX_ORDER}], got {k}")
    coeffs = [1.0] + [-1.0] * k
    roots = np.roots(coeffs)

    real_mask = (np.abs(roots.imag) < 1e-8) & (roots.real > 1.0) & (roots.real < 2.0)
    if real_mask.sum() != 1:
        raise ArithmeticError(f"expected one dominant real root in (1,2) for k={k}")
    dom = float(roots[real_mask][0].real)
    for _ in range(100):
        f = _charpoly_value(k, dom).real
        if abs(f) < 1e-13 * _term_scale(k, dom):
            break
        fp = _charpoly_derivative(k, dom).real
        dom -= f / fp
    if abs(_charpoly_value(k, dom)) >= 1e-13 * _term_scale(k, dom):
        raise ArithmeticError(f"Newton polish of the dominant root failed for k={k}")

    others = roots[~real_mask]
    order = np.lexsort((others.imag.round(12), others.real.round(12)))
    others = others[order][::-1]
    out = np.concatenate(([complex(dom)], others))

    residuals = np.array(
        [abs(_charpoly_value(k, z)) / _term_scale(k, z) for z in out]
    )
    if residuals.max() >= 1e-10:
        raise ArithmeticError(
            f"characteristic root residual {residuals.max():.3e} (relative to "
            f"the polynomial's term sizes) too large for k={k}"
        )
    return out


def fib_k_dresden(k: int, n: int) -> float:
    """Closed form summing (a-1)/(2+(k+1)(a-2)) * a^(n-1) over the roots a.

    Returns the real value; the exact integer is its rounding.  Raises
    ArithmeticError if the imaginary parts fail to cancel to below 1e-6,
    which signals accumulated root-finding error rather than a wrong formula.
    """
    n = _check_integer("index n", n)
    k = _check_integer("order k", k, least=2)
    total = complex(0.0)
    for a in char_roots(k):
        total += (a - 1.0) / (2.0 + (k + 1) * (a - 2.0)) * a ** (n - 1)
    if abs(total.imag) >= 1e-6:
        raise ArithmeticError(
            f"imaginary residue {total.imag:.3e} in closed form (k={k}, n={n})"
        )
    return float(total.real)


def fib_k_spickerman(k: int, n: int) -> float:
    """Closed form summing (a^(k+1)-a^k)/(2a^k-(k+1)) * a^(n-1) over roots a.

    Same contract as fib_k_dresden, with the alternative weight expression.
    """
    n = _check_integer("index n", n)
    k = _check_integer("order k", k, least=2)
    total = complex(0.0)
    for a in char_roots(k):
        ak = a**k
        total += (ak * a - ak) / (2.0 * ak - (k + 1)) * a ** (n - 1)
    if abs(total.imag) >= 1e-6:
        raise ArithmeticError(
            f"imaginary residue {total.imag:.3e} in closed form (k={k}, n={n})"
        )
    return float(total.real)
