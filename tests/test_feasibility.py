"""Counting, scheduling, and backhaul checks.

The equation/variable counts are cross-checked against a brute-force
enumeration that walks every interference pair and every filter
separately, so the closed-form expressions in the module never test
themselves.
"""

import math
from fractions import Fraction

import pytest

from pcia import (
    ExperimentSpec,
    backhaul_rate,
    dof_upper_bound,
    is_proper_generic,
    is_proper_partial,
    time_share_schedule,
)
from pcia import feasibility


def test_dof_upper_bound_frozen_values():
    assert dof_upper_bound([3] * 5, [3] * 5) == 7
    assert dof_upper_bound([2] * 3, [2] * 3) == 3
    assert dof_upper_bound([3] * 4, [3] * 4) == 6
    assert dof_upper_bound([2, 3], [2, 2]) == 2


def test_dof_upper_bound_odd_totals_round_down_per_user():
    # 2x3 has an odd antenna total, so each such user contributes
    # (2+3-1)/4 = 1 rather than 5/4.
    assert dof_upper_bound([2], [3]) == 1
    assert dof_upper_bound([2] * 4, [3] * 4) == 4
    # ...while even totals only floor once at the end.
    assert dof_upper_bound([3] * 3, [3] * 3) == 4  # 3 * 3/2 = 4.5


def test_dof_upper_bound_input_validation():
    with pytest.raises(ValueError):
        dof_upper_bound([2, 2], [2])
    with pytest.raises(ValueError):
        dof_upper_bound([2, 0], [2, 2])
    # counts are never truncated: 2.5 antennas is an error, 2.0 is 2
    with pytest.raises(ValueError, match="rx_antennas must be a whole number, got 2.5"):
        dof_upper_bound([2.5, 2.5], [2, 2])
    with pytest.raises(ValueError, match="tx_antennas must be a whole number, got 2.5"):
        dof_upper_bound([2, 2], [2, 2.5])
    assert dof_upper_bound([2.0, 3.0], [2, 2.0]) == dof_upper_bound([2, 3], [2, 2]) == 2


def _count_by_enumeration(num_users, m, n, paired):
    """Independent oracle: walk pairs and filters one at a time.

    Equations: one per interfering stream pair, i.e. d*d for every
    ordered (receiver, foreign transmitter) pair.  Variables: each
    receive filter contributes d*(m-d) Grassmannian coordinates and
    each transmit filter d*(t-d), where t doubles under pairing.
    """
    d_hat = dof_upper_bound([m] * num_users, [n] * num_users)
    d = Fraction(d_hat, num_users)
    eqs = Fraction(0)
    for k in range(num_users):
        for l in range(num_users):
            if l != k:
                eqs += d * d
    t = 2 * n if paired else n
    variables = Fraction(0)
    for k in range(num_users):
        variables += d * (m - d) + d * (t - d)
    return eqs, variables


@pytest.mark.parametrize("paired", [False, True])
def test_counts_match_enumeration_oracle(paired):
    check = is_proper_partial if paired else is_proper_generic
    for num_users in range(2, 7):
        for m in range(1, 5):
            for n in range(1, 5):
                d_hat = dof_upper_bound([m] * num_users, [n] * num_users)
                if min(m, n) < math.ceil(Fraction(d_hat, num_users)):
                    continue  # below the per-user antenna floor
                verdict = check(num_users, m, n)
                eqs, variables = _count_by_enumeration(num_users, m, n, paired)
                assert verdict.num_equations == eqs
                assert verdict.num_variables == variables
                assert verdict.proper == (eqs <= variables)


def test_square_cells_proper_up_to_three_generic_five_partial():
    for num_users in range(2, 8):
        for mn in (1, 2, 3, 4):
            generic = is_proper_generic(num_users, mn, mn)
            partial = is_proper_partial(num_users, mn, mn)
            assert generic.proper == (num_users <= 3)
            assert partial.proper == (num_users <= 5)
            assert generic.bound_rhs == 3
            assert partial.bound_rhs == 5


def test_odd_total_cells_proper_up_to_four_generic():
    # Antenna totals of five: the extra transmit antenna buys one more cell.
    for m, n in ((2, 3), (3, 2)):
        for num_users in range(2, 8):
            verdict = is_proper_generic(num_users, m, n)
            assert verdict.bound_rhs == 4
            assert verdict.proper == (num_users <= 4)


def test_verdict_exact_counts_three_cell_square():
    verdict = is_proper_generic(3, 2, 2)
    assert verdict.num_equations == 6
    assert verdict.num_variables == 6
    assert verdict.proper
    assert verdict.system_label == "(2x2, 1)^3"


def test_verdict_boundary_partial_five_cells():
    verdict = is_proper_partial(5, 2, 2)
    assert verdict.system_label == "(2x4, 1)^5"
    assert verdict.num_equations == verdict.num_variables == 20
    assert verdict.proper
    assert not is_proper_partial(6, 2, 2).proper


def test_fractional_per_user_counts_stay_rational():
    verdict = is_proper_partial(3, 3, 3)
    assert verdict.num_equations == Fraction(32, 3)
    assert verdict.num_variables == Fraction(76, 3)
    assert verdict.proper


def test_antenna_floor_precondition():
    # Two 1x5 users support three total streams, but a single receive
    # antenna cannot decode two of them in the same slot.
    with pytest.raises(ValueError, match="min"):
        is_proper_generic(2, 1, 5)
    with pytest.raises(ValueError, match="min"):
        is_proper_partial(2, 1, 5)


@pytest.mark.parametrize("check", [is_proper_generic, is_proper_partial])
def test_properness_counts_must_be_whole(check):
    assert check(3, 2.0, 2) == check(3.0, 2, 2.0) == check(3, 2, 2)
    for args, name in (((3.5, 2, 2), "num_users"), ((3, 2.5, 2), "m"), ((3, 2, 2.5), "n")):
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            check(*args)


@pytest.mark.parametrize("check", [is_proper_generic, is_proper_partial])
def test_properness_needs_at_least_one_user(check):
    # zero users used to divide by zero, and a negative count read as proper
    for num_users in (0, -1):
        with pytest.raises(ValueError, match="num_users must be at least 1"):
            check(num_users, 2, 2)


def test_schedule_five_users_seven_streams():
    sched = time_share_schedule(5, 7)
    assert sched.remainder == 2
    assert sched.num_slots == 10
    assert sched.boosted_slots_per_user == 4
    assert sched.per_user_average == Fraction(7, 5)
    assert len(sched.slot_table) == 10
    for row in sched.slot_table:
        assert sorted(row) == [1, 1, 1, 2, 2]
        assert sum(row) == 7
    for k in range(5):
        assert sum(row[k] for row in sched.slot_table) == 14
    # Boosted pairs enumerate lexicographically.
    assert sched.slot_table[0] == (2, 2, 1, 1, 1)
    assert sched.slot_table[-1] == (1, 1, 1, 2, 2)


def test_schedule_four_users_six_streams():
    sched = time_share_schedule(4, 6)
    assert sched.num_slots == 6
    assert sched.boosted_slots_per_user == 3
    assert all(sum(row) == 6 for row in sched.slot_table)
    assert {sum(row[k] for row in sched.slot_table) for k in range(4)} == {9}


def test_schedule_divisible_total_needs_one_slot():
    sched = time_share_schedule(3, 6)
    assert sched.slot_table == ((2, 2, 2),)
    assert sched.num_slots == 1
    assert sched.per_user_average == 2


def test_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        time_share_schedule(0, 3)
    with pytest.raises(ValueError):
        time_share_schedule(3, -1)


def test_schedule_counts_must_be_whole():
    assert time_share_schedule(3, 4.0) == time_share_schedule(3.0, 4) == time_share_schedule(3, 4)
    assert type(time_share_schedule(3.0, 4.0).dof_total) is int
    with pytest.raises(ValueError, match="num_users must be a whole number"):
        time_share_schedule(2.5, 4)
    with pytest.raises(ValueError, match="dof_total must be a whole number"):
        time_share_schedule(3, 4.5)


def test_a_schedule_past_the_slot_limit_is_refused_before_it_is_built():
    # 15 users at 7 streams is the largest K/2 table under the limit; 16 at
    # 8 used to be enumerated in full, and 40 at 20 (1.4e11 slots) hung.
    assert time_share_schedule(15, 7).num_slots == math.comb(15, 7) == 6435
    assert time_share_schedule(16, 16).num_slots == 1
    with pytest.raises(ValueError, match=r"time sharing 8 streams over 16 users needs "
                                         r"12870 slots; a schedule holds at most 10000"):
        time_share_schedule(16, 8)
    # The count is checked before any slot is enumerated; one of 2**64 or
    # more is bounded, not computed digit by digit.
    with pytest.raises(ValueError, match="needs 137846528820 slots"):
        feasibility._slot_count(40, 20)
    with pytest.raises(ValueError, match=r"needs at least 2\*\*500000 slots"):
        feasibility._slot_count(10**6, 5 * 10**5)
    # The spec checks its table as it is built, so neither the sweep nor
    # check_spec starts enumerating one.
    with pytest.raises(ValueError, match="12870 slots"):
        ExperimentSpec(16, 2, 2, 8, ("bdzf_full",), trials=1)


def test_backhaul_frozen_table():
    expected = {
        # K: (partial line, partial ring, full line, full ring)
        2: (4, 2, 4, 2),
        3: (6, 3, 9, 6),
        4: (8, 4, 16, 12),
        5: (10, 5, 25, 20),
        6: (12, 6, 36, 30),
        7: (14, 7, 49, 42),
    }
    for k, (pl, pr, fl, fr) in expected.items():
        partial = backhaul_rate(k, "line", "partial"), backhaul_rate(k, "ring", "partial")
        full = backhaul_rate(k, "line", "full"), backhaul_rate(k, "ring", "full")
        assert (partial, full) == ((pl, pr), (fl, fr))


def test_backhaul_partial_ring_beats_full_everywhere():
    for k in range(3, 12):
        partial_ring = backhaul_rate(k, "ring", "partial")
        assert partial_ring < backhaul_rate(k, "line", "partial")
        assert partial_ring < backhaul_rate(k, "ring", "full") <= backhaul_rate(k, "line", "full")


def test_backhaul_none_and_unknown():
    assert backhaul_rate(4, "ring", "none") == 0
    assert backhaul_rate(4, "anything", "none") == 0
    with pytest.raises(ValueError, match="unknown"):
        backhaul_rate(4, "mesh", "partial")
    with pytest.raises(ValueError):
        backhaul_rate(0, "ring", "partial")


def test_backhaul_counts_must_be_whole_and_positive():
    # 2.5 users used to give a load of 6.25 on a fully coordinated line
    with pytest.raises(ValueError, match="num_users must be a whole number, got 2.5"):
        backhaul_rate(2.5, "line", "full")
    for pair in feasibility._BACKHAUL:
        with pytest.raises(ValueError, match="num_users must be a whole number, got 2.5"):
            backhaul_rate(2.5, *pair)
    for num_users in (0, -1):
        with pytest.raises(ValueError, match="num_users must be at least 1"):
            backhaul_rate(num_users, "ring", "partial")
    assert backhaul_rate(3.0, "line", "full") == 9
    for pair in feasibility._BACKHAUL:
        assert backhaul_rate(3.0, *pair) == backhaul_rate(3, *pair)
