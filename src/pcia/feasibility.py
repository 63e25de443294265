"""Stream-count feasibility, time sharing, and backhaul accounting.

All counting happens in exact rational arithmetic so that boundary cases
(equality of equation and variable counts) never depend on float rounding.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

from .network import _integral

__all__ = [
    "FeasibilityVerdict",
    "TimeShareSchedule",
    "BackhaulReport",
    "dof_upper_bound",
    "is_proper_generic",
    "is_proper_partial",
    "time_share_schedule",
    "backhaul_rate",
]


def dof_upper_bound(rx_antennas, tx_antennas) -> int:
    """Largest total stream count the coordinated downlink can support.

    Each user contributes a quarter of its even-rounded antenna total;
    the sum is floored once at the end.
    """
    rx = [_integral(v, "rx_antennas", 1) for v in rx_antennas]
    tx = [_integral(v, "tx_antennas", 1) for v in tx_antennas]
    if len(rx) != len(tx):
        raise ValueError("need one rx and one tx antenna count per user")
    total = sum(
        Fraction(m + n - (m + n) % 2, 4)
        for m, n in zip(rx, tx)
    )
    return math.floor(total)


@dataclasses.dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of a properness count for one symmetric system."""

    system_label: str
    num_equations: Fraction
    num_variables: Fraction
    proper: bool
    bound_rhs: Fraction  # largest user count the closed form allows


def _check_antenna_floor(num_users: int, m: int, n: int, d_hat: int) -> None:
    floor = math.ceil(Fraction(d_hat, num_users))
    if min(m, n) < floor:
        raise ValueError(
            f"properness needs min(m, n) >= {floor} per-user streams "
            f"(got m={m}, n={n} for {d_hat} total streams over {num_users} users)"
        )


def _verdict(num_users, m, n, paired: bool) -> FeasibilityVerdict:
    """Counts at the stream total of :func:`dof_upper_bound`, spread evenly over users."""
    num_users, m, n = (_integral(v, name, 1) for v, name in
                       ((num_users, "num_users"), (m, "m"), (n, "n")))
    extra_tx = n if paired else 0
    c = m + n
    rem = c % 2
    d_hat = dof_upper_bound([m] * num_users, [n] * num_users)
    _check_antenna_floor(num_users, m, n, d_hat)
    per_user = Fraction(d_hat, num_users)
    num_eq = num_users * (num_users - 1) * per_user ** 2
    num_var = num_users * per_user * (c + extra_tx - 2 * per_user)
    if extra_tx == 0:
        bound = 3 + Fraction(4 * rem, c - rem)
    else:
        bound = 3 + Fraction(4 * (n + rem), c - rem)
    return FeasibilityVerdict(
        system_label=f"({m}x{n + extra_tx}, {per_user})^{num_users}",
        num_equations=num_eq,
        num_variables=num_var,
        proper=num_eq <= num_var,
        bound_rhs=bound,
    )


def is_proper_generic(num_users: int, m: int, n: int) -> FeasibilityVerdict:
    """Properness of a symmetric system without transmitter pairing.

    Evaluated at the stream total from :func:`dof_upper_bound` spread
    evenly (as an exact rational) across users.

    Raises:
        ValueError: when ``min(m, n)`` is below the per-user stream floor,
            or a count is below 1 or not a whole number.
    """
    return _verdict(num_users, m, n, paired=False)


def is_proper_partial(num_users: int, m: int, n: int) -> FeasibilityVerdict:
    """Properness when each message is precoded across a station pair.

    Pairing doubles the transmit dimension seen by each message to ``2n``
    while the stream target stays at the unpaired upper bound, so extra
    precoder variables loosen the count.
    """
    return _verdict(num_users, m, n, paired=True)


@dataclasses.dataclass(frozen=True)
class TimeShareSchedule:
    """Round-robin slot plan delivering a fractional per-user average.

    ``slot_table[t][k]`` is user ``k``'s stream count in slot ``t``. Over
    ``num_slots`` slots every user totals the same number of streams.
    """

    num_users: int
    dof_total: int
    remainder: int        # users per slot that get the larger count
    num_slots: int
    boosted_slots_per_user: int
    slot_table: tuple

    @property
    def per_user_average(self) -> Fraction:
        return Fraction(self.dof_total, self.num_users)


# Most slots a time-share table may hold: a sweep designs every slot on
# every draw, so a larger table is a mistake, not a workload.
_MAX_SLOTS = 10_000


def _slot_count(num_users: int, dof_total: int) -> int:
    """Rows of the time-share table of ``dof_total`` streams over ``num_users`` users.

    The count is ``comb(num_users, dof_total mod num_users)``, or 1 when the
    total divides evenly. Raises a ValueError naming the count when it is
    over ``_MAX_SLOTS``, before anything is enumerated; a count of 2**64
    or more is not computed in full.
    """
    remainder = dof_total % num_users
    fewest = min(remainder, num_users - remainder)
    # comb(K, r) >= 2**min(r, K - r), so a large exponent is over the limit.
    count = math.comb(num_users, fewest) if fewest < 64 else None
    if count is None or count > _MAX_SLOTS:
        slots = f"at least 2**{fewest}" if count is None else count
        raise ValueError(f"time sharing {dof_total} streams over {num_users} users needs "
                         f"{slots} slots; a schedule holds at most {_MAX_SLOTS}")
    return count


def time_share_schedule(num_users: int, dof_total: int) -> TimeShareSchedule:
    """Slot plan that averages ``dof_total / num_users`` streams per user.

    When the total does not divide evenly, each slot boosts one subset of
    users to the ceiling count; the subsets enumerate all combinations in
    lexicographic order so every user is boosted equally often. A table of
    more than ``_MAX_SLOTS`` slots raises a ValueError naming its size.
    """
    num_users = _integral(num_users, "num_users", 1)
    dof_total = _integral(dof_total, "dof_total", 0)
    num_slots = _slot_count(num_users, dof_total)
    base, remainder = divmod(dof_total, num_users)
    if remainder == 0:
        table = (tuple([base] * num_users),)
        return TimeShareSchedule(num_users, dof_total, 0, 1, 0, table)
    boosted = math.comb(num_users - 1, remainder - 1)
    table = []
    for subset in itertools.combinations(range(num_users), remainder):
        row = [base] * num_users
        for k in subset:
            row[k] = base + 1
        table.append(tuple(row))
    return TimeShareSchedule(
        num_users, dof_total, remainder, num_slots, boosted, tuple(table)
    )


_BACKHAUL = {
    ("line", "partial"): lambda k: 2 * k,
    ("ring", "partial"): lambda k: k,
    ("line", "full"): lambda k: k * k,
    ("ring", "full"): lambda k: k * (k - 1),
}


def backhaul_rate(num_users: int, topology: str, coordination: str) -> int:
    """Backhaul load in multiples of one user's message rate.

    Partial coordination forwards each message once around the ring (or
    there and back on a line); full coordination floods every message to
    every station.
    """
    num_users = _integral(num_users, "num_users", 1)
    if coordination == "none":
        return 0
    try:
        return _BACKHAUL[(topology, coordination)](num_users)
    except KeyError:
        raise ValueError(
            f"unknown topology/coordination pair ({topology!r}, {coordination!r})"
        ) from None


@dataclasses.dataclass(frozen=True)
class BackhaulReport:
    """Backhaul load of every topology/coordination pair for one ring size."""

    num_users: int
    partial_line: int
    partial_ring: int
    full_line: int
    full_ring: int

    @classmethod
    def for_users(cls, num_users: int) -> "BackhaulReport":
        return cls(
            num_users=num_users,
            partial_line=backhaul_rate(num_users, "line", "partial"),
            partial_ring=backhaul_rate(num_users, "ring", "partial"),
            full_line=backhaul_rate(num_users, "line", "full"),
            full_ring=backhaul_rate(num_users, "ring", "full"),
        )
