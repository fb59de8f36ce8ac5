"""Trial models and the probability-table container."""

import math

import numpy as np
import pytest

from successruns.models import (
    IID,
    Markov,
    Pmf,
    _checked_mass,
    _clamp_rows,
    _entry_error,
    tv_distance,
)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
def test_iid_rejects_degenerate_probability(bad):
    with pytest.raises(ValueError):
        IID(bad)


NOT_REAL = ["0.5", b"0.5", None, True, False, np.True_, [0.5], 0.5j]


@pytest.mark.parametrize("bad", NOT_REAL, ids=repr)
def test_iid_refuses_a_probability_that_is_not_a_real_number(bad):
    # "0.5" constructed IID(0.5) and None raised TypeError
    with pytest.raises(ValueError, match=r"^p must be a number"):
        IID(bad)


@pytest.mark.parametrize("name", ["p1", "alpha", "beta"])
@pytest.mark.parametrize("bad", NOT_REAL, ids=repr)
def test_markov_refuses_a_probability_that_is_not_a_real_number(name, bad):
    args = {"p1": 0.5, "alpha": 0.4, "beta": 0.3, name: bad}
    with pytest.raises(ValueError, match=rf"^{name} must be a number"):
        Markov(**args)


@pytest.mark.parametrize(
    "value", [0.25, np.float64(0.25), np.float32(0.25), np.float16(0.25)], ids=repr
)
def test_real_probabilities_of_any_type_give_the_python_float(value):
    assert IID(value) == IID(0.25) and type(IID(value).p) is float
    assert Markov(value, value, value) == Markov(0.25, 0.25, 0.25)


def test_iid_complement():
    m = IID(0.3)
    assert math.isclose(m.q, 0.7, abs_tol=1e-15)


def test_markov_validation():
    with pytest.raises(ValueError):
        Markov(0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        Markov(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        Markov(1.0, 0.5, 0.5)


def test_markov_stationary_is_fixed_point():
    m = Markov(0.4, 0.55, 0.7)
    pi = m.stationary
    # one step of the chain from the stationary success probability
    assert math.isclose(pi, pi * m.alpha + (1 - pi) * (1 - m.beta), abs_tol=1e-14)
    assert math.isclose(m.q1, 0.6, abs_tol=1e-15)


def test_stationary_start_ties_first_trial():
    m = Markov.stationary_start(0.3, 0.7)
    assert math.isclose(m.p1, m.stationary, abs_tol=1e-15)


def test_pmf_basics():
    pm = Pmf(2, [0.25, 0.125, 0.125], tail=0.5)
    assert pm.p(2) == 0.25
    assert pm.p(4) == 0.125
    assert pm.p(1) == 0.0
    assert pm.p(99) == 0.0
    assert pm.support_end == 4
    assert "Pmf" in repr(pm)


def test_pmf_moments_ignore_tail():
    pm = Pmf(1, [0.5, 0.25], tail=0.25)
    assert math.isclose(pm.mean(), 1 * 0.5 + 2 * 0.25, abs_tol=1e-15)
    assert math.isclose(pm.second_moment(), 1 * 0.5 + 4 * 0.25, abs_tol=1e-15)


def test_pmf_clamps_rounding_noise_only():
    pm = Pmf(0, [1.0 + 2e-13, -2e-13])
    assert pm.probs[1] == 0.0
    with pytest.raises(ValueError):
        Pmf(0, [1.001, -0.001])
    with pytest.raises(ValueError):
        Pmf(0, [0.5, 0.4])  # mass 0.9, no tail
    with pytest.raises(ValueError):
        Pmf(0, [[0.5], [0.5]])


def test_pmf_tail_completes_mass():
    pm = Pmf(0, [0.5, 0.3], tail=0.2)
    assert math.isclose(pm.tail, 0.2, abs_tol=1e-15)
    with pytest.raises(ValueError):
        Pmf(0, [0.5, 0.3], tail=-0.2)


def test_tv_distance_identical_and_disjoint():
    a = Pmf(0, [0.5, 0.5])
    assert tv_distance(a, a) == 0.0
    b = Pmf(2, [0.5, 0.5])
    assert math.isclose(tv_distance(a, b), 1.0, abs_tol=1e-15)


def test_tv_distance_by_hand():
    a = Pmf(0, [0.6, 0.4])
    b = Pmf(0, [0.4, 0.6])
    assert math.isclose(tv_distance(a, b), 0.2, abs_tol=1e-15)
    assert math.isclose(tv_distance(b, a), 0.2, abs_tol=1e-15)


def test_tv_distance_aligns_offsets_and_tails():
    a = Pmf(1, [0.25, 0.25, 0.25], tail=0.25)
    b = Pmf(2, [0.25, 0.25, 0.25], tail=0.25)
    # differ on {1, 4}: |0.25-0| + |0.25-0.25|*2 + |0-0.25| over support, tails equal
    assert math.isclose(tv_distance(a, b), 0.25, abs_tol=1e-15)


def test_tv_distance_counts_tail_gap():
    a = Pmf(0, [0.7, 0.3])
    b = Pmf(0, [0.7, 0.1], tail=0.2)
    assert math.isclose(tv_distance(a, b), 0.2, abs_tol=1e-15)


def test_pmf_probs_are_numpy():
    pm = Pmf(0, (0.5, 0.5))
    assert isinstance(pm.probs, np.ndarray)


def test_pmf_clamp_boundary():
    pm = Pmf(0, [1.0, -1e-12])  # exactly at the bound: clamped
    assert pm.probs[1] == 0.0 and not np.signbit(pm.probs[1])
    with pytest.raises(ValueError, match=r"pmf entry -1.1e-12 below -1e-12"):
        Pmf(0, [1.0, -1.1e-12])
    with pytest.raises(ValueError, match="pmf entry"):  # a NaN cannot hide it
        Pmf(0, [1.0, float("nan"), -0.5])


def test_the_table_rule_is_pmfs_rule_on_each_row():
    nan = float("nan")
    table = np.array(
        [
            [nan, -0.5, 0.5, 0.5],  # entries before the offset are not read
            [0.0, 1.0, -1e-12, 0.0],  # clamped
            [0.25, 0.25, 0.25, 0.25],
            [0.5, nan, 0.5, -0.5],  # refused for its NaN
            [0.5, 0.5, 0.25, -0.25],  # refused too, but later
        ]
    )
    offsets = [2, 0, 0, 0, 0]
    probs, refused = _clamp_rows(table, offsets)
    assert refused == 3
    assert (probs[0, :2] == 0.0).all()
    for i in range(refused):
        pm = Pmf(offsets[i], table[i, offsets[i] :], tail=0.0)
        assert probs[i, offsets[i] :].tobytes() == pm.probs.tobytes()
        assert _checked_mass(table[i, offsets[i] :], probs[i, offsets[i] :]) == 1.0
    for row in table[refused:]:
        with pytest.raises(ValueError) as want:
            Pmf(0, row)
        assert str(_entry_error(row.min())) == str(want.value)
    assert _clamp_rows(table[:3], offsets[:3])[1] == 3


def test_checked_mass_raises_what_pmf_raises():
    # a row whose sum overshoots 1, and one whose probs lost mass to a clamp
    for raw, probs in (([0.5, 0.5 + 2e-12], None), ([0.5, 0.5], [0.5, 0.25])):
        raw = np.array(raw)
        probs = raw if probs is None else np.array(probs)
        with pytest.raises(ValueError) as want:
            Pmf(0, probs, tail=1.0 - float(raw.sum()))
        with pytest.raises(ValueError) as got:
            _checked_mass(raw, probs)
        assert str(got.value) == str(want.value)


def test_pmf_negative_zero_is_cleared():
    pm = Pmf(0, [0.5, -0.0, 0.5])
    assert not np.signbit(pm.probs).any()


def test_pmf_empty_table_and_tail_bound():
    pm = Pmf(3, [], tail=1.0)
    assert len(pm.probs) == 0 and pm.tail == 1.0 and pm.support_end == 2
    with pytest.raises(ValueError, match="pmf total"):
        Pmf(3, np.zeros(0))
    assert Pmf(0, [1.0 + 1e-12], tail=-1e-12).tail == 0.0
    with pytest.raises(ValueError, match="tail mass"):
        Pmf(0, [1.0], tail=-1.1e-12)


def test_pmf_copies_its_input():
    src = np.array([0.5, 0.5])
    pm = Pmf(0, src)
    src[0] = 0.0
    assert pm.probs[0] == 0.5


def test_pmf_refuses_a_nan_entry_or_tail():
    # a NaN total compared false against the 1e-9 bound, and max(0.0, nan)
    # kept the 0.0, so both constructed before
    with pytest.raises(ValueError, match="pmf entry nan"):
        Pmf(0, [float("nan"), 1.0])
    with pytest.raises(ValueError, match="tail mass nan"):
        Pmf(0, [0.5, 0.5], tail=float("nan"))
    with pytest.raises(ValueError, match="pmf total inf"):
        Pmf(0, [float("inf"), 0.5])
