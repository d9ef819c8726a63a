"""Rank-one cones of positive rationals and their pair form.

Every cone here is {scale * n / m : n a positive integer, m a positive
integer divisor of the denominator supernatural}.  The pair (scale,
denominators) with scale coprime to the support of denominators is a
complete invariant of the construction, and a reduced fraction u/v lies
in the cone exactly when v divides the denominator supernatural and
scale divides u: one direction takes m = v and n = u/scale; for the
other, coprimality of scale with any admissible m means reducing
scale*n/m never cancels into scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add, sub

from ._primes import factorize, support
from .supernat import (
    ExpMap,
    FractionalSupernatural,
    Supernatural,
    int_divides,
)

PositiveRational = Fraction


@dataclass(frozen=True)
class BZPair:
    """(scale, denominators): the pair form of a rank-one cone."""

    scale: int
    denominators: Supernatural

    def __post_init__(self):
        if not isinstance(self.scale, int) or self.scale < 1:
            raise ValueError(f"scale must be a positive integer, got {self.scale!r}")
        for p in support(self.scale):
            if self.denominators.exponent(p) != 0:
                raise ValueError(
                    f"scale prime {p} also divides the denominator part; "
                    "the pair form needs them coprime"
                )

    def __str__(self) -> str:
        return f"({self.scale}, {self.denominators})"


def frac_to_pair(f: FractionalSupernatural) -> BZPair:
    """Split off the denominator: f = denominators / scale, coprimely."""
    neg = f.negative_part()
    scale = 1
    for p, k in neg.items():
        scale *= p ** k
    shift = ExpMap(1, {0: 0}, dict(neg))
    exps = f.exps.combine(shift, add)
    return BZPair(scale, Supernatural(exps))


def pair_to_frac(pair: BZPair) -> FractionalSupernatural:
    """Inverse of frac_to_pair: denominators / scale as an exponent map."""
    shift = ExpMap(1, {0: 0}, dict(factorize(pair.scale)))
    exps = pair.denominators.exps.combine(shift, sub)
    return FractionalSupernatural(exps)


def cone_contains(pair: BZPair, q: Fraction) -> bool:
    """Closed-form membership for a reduced positive rational."""
    if q <= 0:
        raise ValueError(f"need a positive rational, got {q}")
    return int_divides(q.denominator, pair.denominators) and (
        q.numerator % pair.scale == 0
    )


def cone_enumerate(pair: BZPair, num_bound: int, den_bound: int) -> tuple[Fraction, ...]:
    """All members with reduced numerator and denominator within bounds."""
    out = []
    for v in range(1, den_bound + 1):
        if not int_divides(v, pair.denominators):
            continue
        for u in range(pair.scale, num_bound + 1, pair.scale):
            if gcd(u, v) == 1:
                out.append(Fraction(u, v))
    return tuple(sorted(out))


def cones_isomorphic(first: BZPair, second: BZPair) -> bool:
    """Same cone up to rescaling: equivalent denominator supernaturals."""
    return first.denominators.equivalent(second.denominators)
