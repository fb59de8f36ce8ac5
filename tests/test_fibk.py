"""Order-k Fibonacci numbers: exact recurrence and root-based closed forms."""

import pytest

from successruns.fibk import char_roots, fib_k, fib_k_dresden, fib_k_spickerman

# classical table: order 2 and order 3 by hand
FIB2 = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
FIB3 = [1, 1, 2, 4, 7, 13, 24, 44, 81, 149, 274]


@pytest.mark.parametrize("n,want", list(enumerate(FIB2, start=1)))
def test_order_two_values(n, want):
    assert fib_k(2, n) == want


@pytest.mark.parametrize("n,want", list(enumerate(FIB3, start=1)))
def test_order_three_values(n, want):
    assert fib_k(3, n) == want


def test_order_one_is_constant():
    assert [fib_k(1, n) for n in range(1, 9)] == [1] * 8


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
def test_recurrence_holds(k):
    for n in range(k + 2, 40):
        window = sum(fib_k(k, n - i) for i in range(1, k + 1))
        assert fib_k(k, n) == window


def test_argument_validation():
    with pytest.raises(ValueError):
        fib_k(0, 5)
    with pytest.raises(ValueError):
        fib_k(33, 5)
    with pytest.raises(ValueError):
        fib_k(2, 0)


def test_overflow_is_loud():
    with pytest.raises(OverflowError):
        fib_k(2, 200)
    # just under the cliff still works
    assert fib_k(2, 92) == 7540113804746346429


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_char_roots_satisfy_polynomial(k):
    for z in char_roots(k):
        residual = z**k - sum(z**i for i in range(k))
        assert abs(residual) < 1e-9


def test_char_roots_count_and_dominant():
    roots = char_roots(4)
    assert len(roots) == 4
    dominant = max(abs(z) for z in roots)
    assert 1.0 < dominant < 2.0


@pytest.mark.parametrize("closed", [fib_k_dresden, fib_k_spickerman])
@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_closed_forms_round_to_exact(closed, k):
    for n in range(1, 45):
        exact = fib_k(k, n)
        approx = closed(k, n)
        assert round(approx) == exact
        assert abs(approx - exact) <= 1e-6 * max(1, exact)


def test_closed_forms_agree_with_each_other():
    for k in (2, 3, 4):
        for n in range(1, 30):
            d = fib_k_dresden(k, n)
            s = fib_k_spickerman(k, n)
            assert abs(d - s) <= 1e-6 * max(1.0, abs(d))


@pytest.mark.parametrize("closed", [fib_k_dresden, fib_k_spickerman])
def test_closed_forms_cover_every_order(closed):
    # every order fib_k accepts, every index whose value fits in int64
    for k in range(2, 33):
        n = 1
        while True:
            try:
                exact = fib_k(k, n)
            except OverflowError:
                break
            assert abs(closed(k, n) - exact) <= 1e-12 * max(1, exact), (k, n)
            n += 1
        assert n > 60


@pytest.mark.parametrize("k", [13, 20, 32])
def test_char_roots_of_high_order(k):
    roots = char_roots(k)
    assert len(roots) == k
    assert roots[0] == max(abs(z) for z in roots)  # real, and listed first
    assert 2.0 - 2.0 ** (1 - k) < roots[0].real < 2.0
