"""A dynamic monotonicity check for functions between lattices.

The paper's Hydroflow section (§8.2) calls for an explicit ``monotone``
type modifier so the compiler can typecheck monotonicity instead of trusting
the programmer (Figure 4's cautionary tale).  Python cannot prove
monotonicity statically, so :func:`is_monotone_on_samples` falsifies a bogus
claim on a sample of lattice points instead; the lattice property tests use
it.  HydroLogic queries still *declare* ``monotone=`` and the analysis
trusts the declaration.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable

from repro.lattices.base import Lattice


def is_monotone_on_samples(func: Callable[[Lattice], Lattice], samples: Iterable[Lattice]) -> bool:
    """Check ``x <= y  implies  f(x) <= f(y)`` over all ordered sample pairs.

    Pairs that are incomparable are skipped (monotonicity says nothing about
    them).  Outputs must be lattice values; anything else fails the check.
    """
    points = list(samples)
    for left, right in combinations(points, 2):
        for lo, hi in ((left, right), (right, left)):
            if not lo.leq(hi):
                continue
            out_lo = func(lo)
            out_hi = func(hi)
            if not isinstance(out_lo, Lattice) or not isinstance(out_hi, Lattice):
                return False
            if not out_lo.leq(out_hi):
                return False
    return True
