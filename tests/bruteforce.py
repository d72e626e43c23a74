"""An independent max-dicut oracle that the tests check the exact ones
against: it shares no code with `gmdlab.exact` but its result type."""

import itertools
from fractions import Fraction

from gmdlab.core import GmdInstance, Labeling
from gmdlab.exact import OptResult


def opt_gmd_bruteforce(inst: GmdInstance) -> OptResult:
    """Full enumeration of all (T+1)^n labelings, kept small by the callers;
    the witness is the first optimal labeling in product order."""
    best_val = Fraction(0)
    best: tuple[int, ...] = tuple([0] * inst.n)
    for assignment in itertools.product(range(inst.T + 1), repeat=inst.n):
        val = Fraction(0)
        for a in inst.arcs:
            if assignment[a.tail] == 0 and assignment[a.head] == a.label:
                val += a.weight
        if val > best_val:
            best_val, best = val, assignment
    return OptResult(value=best_val, witness=Labeling(best), explored=(inst.T + 1) ** inst.n)
