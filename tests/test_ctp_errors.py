"""The filter's error contract, case by case.

Every bad stack raises one exception class with one message, lets no
RuntimeWarning escape, leaves its inputs as they were and, through
``FilterBank.step``, leaves the bank as it was.  The cases cover each entry
of S = H P H^T + R/r (NaN, +inf, -inf; in either triangle, with P symmetric
or not), an indefinite S failing at each pivot, a subnormal r, R scaled by
1e308, and Q scales that overflow the prediction.  A finite prediction
gives the plain numpy formula's bits.
"""

import warnings

import numpy as np
import pytest

from xmtrack.ctp import BBox, FilterBank, FilterDegenerateError, SessionConfig, ctp_predict, ctp_update

NOT_FINITE = "ctp update: innovation covariance not finite"
NOT_PD = "ctp update: innovation covariance not positive definite"
PREDICT_NOT_FINITE = "ctp predict: state covariance not finite"
ROWS = [1, 3, 9]


def stack(rows: int, seed: int = 0):
    """x, P, R, r, z, F, Q of ``rows`` random, well-conditioned filters."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, 8, 8))
    p = a @ a.transpose(0, 2, 1) + np.eye(8)
    r_mat = np.stack([np.diag(rng.uniform(0.5, 8.0, size=4)) for _ in range(rows)])
    f = np.stack([np.eye(8) + np.diag(np.full(4, 1.0), 4)] * rows)
    q = np.stack([np.diag(rng.uniform(0.01, 1.0, size=8)) for _ in range(rows)])
    x = rng.normal(scale=50.0, size=(rows, 8))
    x[:, 2:4] = rng.uniform(20.0, 40.0, size=(rows, 2))
    z = x[:, :4] + rng.normal(scale=2.0, size=(rows, 4))
    return x, p, r_mat, rng.uniform(0.1, 1.0, size=rows), z, f, q


def assert_raises_cleanly(fn, args, error, message):
    """fn(*args) raises exactly error(message), warns nothing and changes no argument."""
    arrays = [a for a in args if a is not None]
    before = [a.copy() for a in arrays]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as info:
            fn(*args)
    assert type(info.value) is error and str(info.value) == message, repr(info.value)
    for got, want in zip(arrays, before):
        np.testing.assert_array_equal(got, want)


def bank_of(rows: int, seed: int = 0) -> FilterBank:
    boxes = [BBox(100.0 + 20.0 * b, 200.0, 30.0, 28.0) for b in range(rows)]
    bank = FilterBank(boxes, [(512.0, 512.0)] * rows, [SessionConfig()] * rows)
    x, p, r_mat, _, _, _, _ = stack(rows, seed)
    bank.x, bank.P, bank.R = x, p, r_mat
    return bank


def assert_bank_step_raises_cleanly(bank, valid, z, r, error, message):
    state = (bank.x.copy(), bank.P.copy(), bank.R.copy(), bank.Q_base.copy(), list(bank.streak))
    assert_raises_cleanly(bank.step, (np.array(valid), z, r), error, message)
    for got, want in zip((bank.x, bank.P, bank.R, bank.Q_base), state):
        np.testing.assert_array_equal(got, want)
    assert bank.streak == state[4]


def s_entry_cases(rows: int):
    """(row, i, j, value, symmetric) for every S entry, value and P symmetry."""
    for i in range(4):
        for j in range(4):
            for value in (np.nan, np.inf, -np.inf):
                for symmetric in (True, False):
                    yield (4 * i + j) % rows, i, j, value, symmetric


@pytest.mark.parametrize("rows", ROWS)
def test_a_non_finite_s_entry_raises_not_finite(rows):
    for b, i, j, value, symmetric in s_entry_cases(rows):
        x, p, r_mat, r, z, _, _ = stack(rows, seed=i + j)
        p[b, i, j] = value
        if symmetric:
            p[b, j, i] = value
        assert_raises_cleanly(ctp_update, (x, p, r_mat, r, z), FilterDegenerateError, NOT_FINITE)


@pytest.mark.parametrize("rows", ROWS)
def test_a_non_finite_s_entry_leaves_the_bank_alone(rows):
    for b, i, j, value, symmetric in s_entry_cases(rows):
        bank = bank_of(rows, seed=i)
        bank.P[b, i, j] = value
        if symmetric:
            bank.P[b, j, i] = value
        z, r = bank.x[:, :4] + 1.0, np.full(rows, 0.5)
        assert_bank_step_raises_cleanly(bank, [True] * rows, z, r, FilterDegenerateError, NOT_FINITE)
        if rows > 1:  # the corrupt row stepped among invalid rows
            valid = [k == b for k in range(rows)]
            assert_bank_step_raises_cleanly(bank, valid, z, r, FilterDegenerateError, NOT_FINITE)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("pivot", range(4))
def test_an_indefinite_s_raises_not_positive_definite_at_each_pivot(rows, pivot):
    for b in range(rows):
        x, p, r_mat, r, z, _, _ = stack(rows, seed=pivot)
        box = np.diag(np.full(4, 1.0))
        box[pivot, pivot] = -1e4  # S's pivot-th leading minor is negative; S stays finite
        p[b, :4, :4] = box
        r_mat[b], r[b] = np.eye(4), 1.0
        assert_raises_cleanly(ctp_update, (x, p, r_mat, r, z), FilterDegenerateError, NOT_PD)
    if pivot:  # a symmetric S with a positive diagonal that fails at this pivot
        x, p, r_mat, r, z, _, _ = stack(rows, seed=pivot)
        box = np.eye(4)
        box[pivot, pivot - 1] = box[pivot - 1, pivot] = 2.0
        p[-1, :4, :4], r_mat[-1], r[-1] = box, 1e-6 * np.eye(4), 1.0
        assert_raises_cleanly(ctp_update, (x, p, r_mat, r, z), FilterDegenerateError, NOT_PD)
    bank = bank_of(rows, seed=pivot)
    bank.P[-1, :4, :4] = -1e4 * np.eye(4)
    z = bank.x[:, :4] + 1.0
    assert_bank_step_raises_cleanly(bank, [True] * rows, z, np.ones(rows), FilterDegenerateError, NOT_PD)


@pytest.mark.parametrize("rows", ROWS)
def test_a_subnormal_r_or_r_times_1e308_overflows_s(rows):
    for b in range(rows):
        x, p, r_mat, r, z, _, _ = stack(rows, seed=b)
        r[b] = 5e-324  # finite and positive, so it passes the guard; R / r is inf
        assert_raises_cleanly(ctp_update, (x, p, r_mat, r, z), FilterDegenerateError, NOT_FINITE)
        x, p, r_mat, r, z, _, _ = stack(rows, seed=b)
        r_mat[b], r[b] = 1e308 * np.eye(4), 0.5  # finite; divided by r it overflows
        assert_raises_cleanly(ctp_update, (x, p, r_mat, r, z), FilterDegenerateError, NOT_FINITE)
    bank = bank_of(rows)
    z = bank.x[:, :4] + 1.0
    r = np.ones(rows)
    r[-1] = 5e-324
    assert_bank_step_raises_cleanly(bank, [True] * rows, z, r, FilterDegenerateError, NOT_FINITE)
    with np.errstate(over="ignore"):
        bank.R[0] *= 1e308  # entries of 0.5e308 to 8e308, the larger ones inf
    assert_bank_step_raises_cleanly(bank, [True] * rows, z, np.full(rows, 0.5), FilterDegenerateError, NOT_FINITE)


@pytest.mark.parametrize("rows", ROWS)
def test_a_q_scale_that_overflows_the_prediction_raises(rows):
    for b in range(rows):
        x, p, _, _, _, f, q = stack(rows, seed=b)
        q += np.eye(8)  # every Q diagonal entry above 1
        for scale_value in (1e308, np.inf):
            scale = np.ones(rows)
            scale[b] = scale_value
            assert_raises_cleanly(ctp_predict, (x, p, f, q, scale), FilterDegenerateError, PREDICT_NOT_FINITE)
        q[b] = 1e308 * np.eye(8)  # finite, but P + P^T overflows
        assert_raises_cleanly(ctp_predict, (x, p, f, q, None), FilterDegenerateError, PREDICT_NOT_FINITE)
    bank = bank_of(rows)
    bank.Q_base[-1] = 1e308 * np.eye(8)
    z = bank.x[:, :4] + 1.0
    for valid in ([True] * rows, [False] * rows, [k % 2 == 0 for k in range(rows)]):
        assert_bank_step_raises_cleanly(bank, valid, z, np.ones(rows), FilterDegenerateError, PREDICT_NOT_FINITE)


@pytest.mark.parametrize("rows", ROWS)
def test_a_finite_prediction_gives_the_numpy_formula_bits(rows):
    # The update's bits are pinned by test_update_is_bit_identical_to_the_numpy_linalg_formula.
    for seed in range(10):
        x, p, _, _, _, f, q = stack(rows, seed)
        for scale in (None, np.linspace(1.0, 10.0, rows)):
            q_used = q if scale is None else scale[:, None, None] * q
            p_want = f @ p @ f.transpose(0, 2, 1) + q_used
            got_x, got_p = ctp_predict(x, p, f, q, scale)
            assert got_x.tobytes() == (f @ x[:, :, None])[:, :, 0].tobytes()
            assert got_p.tobytes() == ((p_want + p_want.transpose(0, 2, 1)) / 2.0).tobytes()
