"""One integer rule at every public boundary.

Every integer argument of the public entry points (run lengths, occurrence
indices, horizons, trial indices, sample sizes, replicate counts, seeds,
exponents) goes through ``models._check_integer``: any integer type is
accepted, numpy's included, and a bool, a float (even 2.0) or a value below
the argument's floor is a ValueError naming the argument, never a
TypeError, a truncation or a silently empty result.
"""

import pickle
import re

import numpy as np
import pytest

from successruns import (
    IID,
    FirstRunWait,
    LongestRun,
    Markov,
    Pmf,
    Poly,
    RationalGF,
    RthRunWait,
    RunCount,
    SeededStream,
    bootstrap_se,
    count_runs,
    counts_moments,
    counts_pmf,
    default_vmax,
    enumerate_exact,
    fib_k,
    fib_k_dresden,
    fib_k_spickerman,
    fit_iid,
    fit_markov,
    longest_run_pmf,
    sample_waiting_times,
    simulate,
    trk_moments,
    trk_pgf,
    trk_pmf,
    vk_pgf,
    vk_pmf,
    vk_pmf_closedform_k2,
)
from successruns.fibk import char_roots
from successruns.geometric import markov_vk_pgf, mean_wait
from successruns.inference import loglik_vk
from successruns.oracle import enumerate_reference
from successruns.polyseries import ladder_series
from successruns.rth_waiting import occurrence_factors, trk_tail
from successruns.run_counts import first_occurrence_index, max_count

M = Markov(0.45, 0.3, 0.6)
WAITS = [2, 3, 5, 2, 4, 7, 3, 2, 6, 3]
GF = RationalGF(Poly((0.5, 0.5)), Poly((1.0, -0.25)))

#: (argument name, its floor, call with that argument set to x).  The
#: other arguments are valid, so only x decides the outcome.
CASES = {
    "vk_pmf k": ("k", 1, lambda x: vk_pmf(M, x, vmax=20)),
    "vk_pmf vmax": ("vmax", 0, lambda x: vk_pmf(M, 2, vmax=x)),
    "vk_pgf k": ("k", 1, lambda x: vk_pgf(M, x)),
    "markov_vk_pgf k": ("k", 1, lambda x: markov_vk_pgf(x, 0.3, 0.6, 0.45)),
    "default_vmax k": ("k", 1, lambda x: default_vmax(M, x)),
    "mean_wait k": ("k", 1, lambda x: mean_wait(M, x)),
    "vk_pmf_closedform_k2 v": ("v", 1, lambda x: vk_pmf_closedform_k2(M, x)),
    "longest_run_pmf n": ("n", 0, lambda x: longest_run_pmf(M, x)),
    "occurrence_factors k": ("k", 1, lambda x: occurrence_factors(M, x, "II")),
    "trk_pgf k": ("k", 1, lambda x: trk_pgf(M, x, 2, "II")),
    "trk_pgf r": ("r", 1, lambda x: trk_pgf(M, 2, x, "II")),
    "trk_pmf k": ("k", 1, lambda x: trk_pmf(M, x, 2, "I", 30)),
    "trk_pmf r": ("r", 1, lambda x: trk_pmf(M, 2, x, "I", 30)),
    "trk_pmf nmax": ("nmax", 0, lambda x: trk_pmf(M, 2, 2, "I", x)),
    "trk_tail k": ("k", 1, lambda x: trk_tail(M, x, 2, "III", 30)),
    "trk_tail r": ("r", 1, lambda x: trk_tail(M, 2, x, "III", 30)),
    "trk_tail nmax": ("nmax", 0, lambda x: trk_tail(M, 2, 2, "III", x)),
    "trk_moments k": ("k", 1, lambda x: trk_moments(M, x, 2, "II")),
    "trk_moments r": ("r", 1, lambda x: trk_moments(M, 2, x, "II")),
    "count_runs k": ("k", 1, lambda x: count_runs("0110111", x, "III")),
    "first_occurrence_index r": (
        "r", 1, lambda x: first_occurrence_index("0110111", 1, x, "I")
    ),
    "first_occurrence_index k": (
        "k", 1, lambda x: first_occurrence_index("0110111", x, 1, "I")
    ),
    "max_count n": ("n", 0, lambda x: max_count(x, 2, "II")),
    "max_count k": ("k", 1, lambda x: max_count(10, x, "II")),
    "counts_pmf n": ("n", 0, lambda x: counts_pmf(M, x, 2, "III")),
    "counts_pmf k": ("k", 1, lambda x: counts_pmf(M, 12, x, "III")),
    "counts_moments n": ("n", 0, lambda x: counts_moments(M, x, 2, "I")),
    "counts_moments k": ("k", 1, lambda x: counts_moments(M, 12, x, "I")),
    "FirstRunWait k": ("k", 1, lambda x: FirstRunWait(x)),
    "RthRunWait k": ("k", 1, lambda x: RthRunWait(x, 2, "I")),
    "RthRunWait r": ("r", 1, lambda x: RthRunWait(2, x, "I")),
    "RunCount k": ("k", 1, lambda x: RunCount(x, "II")),
    "enumerate_exact n": ("n", 1, lambda x: enumerate_exact(M, x, LongestRun())),
    "enumerate_reference n": (
        "n", 1, lambda x: enumerate_reference(M, x, RunCount(1, "I"))
    ),
    "simulate n": (
        "n", 1, lambda x: simulate(M, x, RunCount(1, "I"), 5, SeededStream(1))
    ),
    "simulate reps": (
        "reps", 1, lambda x: simulate(M, 4, RunCount(1, "I"), x, SeededStream(1))
    ),
    "sample_waiting_times k": (
        "k", 1, lambda x: sample_waiting_times(M, x, 5, SeededStream(1))
    ),
    "sample_waiting_times reps": (
        "reps", 1, lambda x: sample_waiting_times(M, 2, x, SeededStream(1))
    ),
    "SeededStream seed": ("seed", 0, lambda x: SeededStream(x)),
    "loglik_vk k": ("k", 1, lambda x: loglik_vk(M, x, WAITS)),
    "fit_iid k": ("k", 1, lambda x: fit_iid(WAITS, x)),
    "fit_iid max_iter": ("max_iter", 1, lambda x: fit_iid(WAITS, 2, max_iter=x)),
    "fit_markov k": ("k", 1, lambda x: fit_markov(WAITS, x)),
    "fit_markov max_iter": (
        "max_iter", 1, lambda x: fit_markov(WAITS, 2, max_iter=x)
    ),
    "bootstrap_se k": (
        "k", 1, lambda x: bootstrap_se(WAITS, x, "iid", 4, SeededStream(1))
    ),
    "bootstrap_se b": (
        "b", 2, lambda x: bootstrap_se(WAITS, 2, "iid", x, SeededStream(1))
    ),
    "fib_k k": ("k", 1, lambda x: fib_k(x, 9)),
    "fib_k n": ("n", 1, lambda x: fib_k(3, x)),
    "fib_k_dresden k": ("k", 2, lambda x: fib_k_dresden(x, 9)),
    "fib_k_dresden n": ("n", 1, lambda x: fib_k_dresden(3, x)),
    "fib_k_spickerman k": ("k", 2, lambda x: fib_k_spickerman(x, 9)),
    "fib_k_spickerman n": ("n", 1, lambda x: fib_k_spickerman(3, x)),
    "char_roots k": ("k", 2, lambda x: char_roots(x)),
    "Pmf offset": ("offset", 0, lambda x: Pmf(x, [0.5, 0.5])),
    "Poly.term power": ("power", 0, lambda x: Poly.term(1.5, x)),
    "RationalGF ** e": ("exponent", 0, lambda x: GF**x),
    "RationalGF.series nmax": ("nmax", 0, lambda x: GF.series(x)),
    "ladder_series emax": ("emax", 0, lambda x: ladder_series(GF, GF, x, 6)),
    "ladder_series nmax": ("nmax", 0, lambda x: ladder_series(GF, GF, 3, x)),
}


def _refused(name: str, call, value) -> None:
    with pytest.raises(ValueError) as err:
        call(value)
    assert re.search(rf"\b{name}\b", str(err.value)), str(err.value)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, "2"])
def test_a_non_integer_is_a_value_error_naming_the_argument(case, bad):
    name, _, call = CASES[case]
    _refused(name, call, bad)


@pytest.mark.parametrize("case", CASES)
def test_a_value_below_the_floor_is_a_value_error_naming_the_argument(case):
    name, least, call = CASES[case]
    _refused(name, call, least - 1)
    _refused(name, call, np.int64(least - 1))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("value", [0, -1])
def test_zero_and_minus_one_give_a_result_or_a_value_error(case, value):
    name, least, call = CASES[case]
    if value < least:
        _refused(name, call, value)
    else:
        call(value)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_numpy_integers_give_the_python_int_result_bit_for_bit(case, kind):
    _, least, call = CASES[case]
    value = max(least, 2)
    want = pickle.dumps(call(value))
    assert pickle.dumps(call(kind(value))) == want


# -- the waits behind the likelihood and the bits behind the counters


@pytest.mark.parametrize(
    "waits",
    [
        [2.5, 3.7],  # truncated to [2, 3] before
        [2.0, 3.0],
        np.array([2.0, 3.0]),
        [True, 3],
        np.array([True, True]),
        ["2", "3"],
        np.array(["2", "3"]),
        [2, None],
    ],
    ids=repr,
)
def test_float_bool_and_string_waits_are_refused(waits):
    refused = "waiting time must be an integer|need an integer dtype"
    with pytest.raises(ValueError, match=refused):
        loglik_vk(IID(0.5), 2, waits)
    with pytest.raises(ValueError, match=refused):
        fit_iid(waits, 2)


def test_integer_waits_of_any_type_give_the_same_likelihood():
    want = loglik_vk(M, 2, WAITS)
    for waits in (
        np.array(WAITS, dtype=np.int32),
        np.array(WAITS, dtype=np.uint16),
        [np.int64(w) for w in WAITS],
        tuple(WAITS),
    ):
        assert loglik_vk(M, 2, waits) == want


@pytest.mark.parametrize(
    "bits",
    [
        [0.7, 1, 1, 1.9],  # read as 0, 1, 1, 1 before
        [0, 1.0, 1],
        [True, False, True],
        np.array([True, True]),
        [0, 2, 1],
        [0, -1, 1],
        ["0", "1"],
    ],
    ids=repr,
)
def test_a_bit_must_be_exactly_the_integer_0_or_1(bits):
    with pytest.raises(ValueError, match="bit"):
        count_runs(bits, 2, "III")


def test_integer_bits_of_any_type_count_alike():
    want = count_runs([0, 1, 1, 0, 1, 1, 1], 2, "III")
    assert want == count_runs("0110111", 2, "III") == 3
    for kind in (np.int8, np.int64, np.uint8):
        assert count_runs(np.array([0, 1, 1, 0, 1, 1, 1], dtype=kind), 2, "III") == want


# -- each answer that came back silently wrong, or as a TypeError


def test_true_is_not_a_run_length():
    # vk_pmf raised TypeError; vk_pgf and trk_pmf read True as k = 1
    for call in (
        lambda: vk_pmf(IID(0.5), True),
        lambda: vk_pgf(IID(0.5), True),
        lambda: trk_pmf(IID(0.5), True, 1, "I", 10),
    ):
        with pytest.raises(ValueError, match="run length k"):
            call()


def test_a_fractional_run_count_is_refused():
    # RunCount(2.5, "I") put all its mass at 0; max_count returned 4.0
    with pytest.raises(ValueError, match="run length k"):
        RunCount(2.5, "I")
    with pytest.raises(ValueError, match="run length k"):
        max_count(10, 2.5, "I")


def test_a_negative_horizon_is_not_an_empty_law():
    with pytest.raises(ValueError, match="nmax"):
        trk_pmf(IID(0.5), 2, 1, "I", nmax=-1)


def test_fractional_waits_are_not_truncated():
    with pytest.raises(ValueError, match="waiting time must be an integer"):
        loglik_vk(IID(0.5), 2, [2.5, 3.7])


def test_fractional_bits_are_not_truncated():
    with pytest.raises(ValueError, match="bit"):
        count_runs([0.7, 1, 1, 1.9], 2, "III")


def test_numpy_run_lengths_reach_every_engine():
    # refused by geometric, rth_waiting and inference before
    k = np.int64(2)
    assert vk_pmf(M, k).probs.tobytes() == vk_pmf(M, 2).probs.tobytes()
    assert trk_pmf(M, k, 2, "II", 40).probs.tobytes() == (
        trk_pmf(M, 2, 2, "II", 40).probs.tobytes()
    )
    assert loglik_vk(M, k, WAITS) == loglik_vk(M, 2, WAITS)


# -- Pmf.p reads an integer value, with no floor

PMF = vk_pmf(IID(0.5), 2, vmax=10)


@pytest.mark.parametrize(
    "value", [2.0, 2.5, np.float64(3.0), True, False, "2", None], ids=repr
)
def test_pmf_p_refuses_a_value_that_is_not_an_integer(value):
    # 2.0 and 2.5 raised numpy's IndexError; True read as 1 gave 0.0
    with pytest.raises(ValueError, match="value must be an integer"):
        PMF.p(value)


def test_pmf_p_reads_integers_of_any_type_and_zero_outside_the_table():
    assert PMF.p(2) == PMF.p(np.int64(2)) == PMF.p(np.uint8(2)) == 0.25
    for outside in (1, 0, -5, PMF.support_end + 1, 10**30):
        assert PMF.p(outside) == 0.0
