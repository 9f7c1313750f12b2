"""Markov fractions and Markov triples on the topograph.

The Markov fraction tree is seeded by (0/1, 1/2) and combines neighbors with
a denominator-weighted mediant; the map sending the Farey fraction at a path
to the Markov fraction at the same path is a strictly increasing bijection
from [0, 1] onto the Markov fractions in [0, 1/2].  Denominators are exactly
the Markov numbers: solutions of x^2 + y^2 + z^2 = 3xyz, regenerated here
three independent ways (mediant denominators, Vieta walking, integer square
roots) so the routes can be cross-checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .cohn import cohn_at, cohn_index
from .errors import DepthLimitError, DomainError, InvariantError, PreconditionError, shown
from .rational import check_int, check_rational, format_fraction
from .tree import _check_path


# ============================================================
# Markov fractions
# ============================================================

def springborn_mediant(lo: Fraction, hi: Fraction) -> Fraction:
    """Weighted mediant (p1*q1 + p2*q2) / (q1^2 + q2^2) of lo = p1/q1 < hi = p2/q2.

    Fraction reduces the result; on tree nodes the reduction factor is
    exactly p2*q1 - p1*q2.
    """
    lo, hi = check_rational(lo, "lo"), check_rational(hi, "hi")
    if lo >= hi:
        raise PreconditionError(
            f"weighted mediant needs lo < hi, got {shown(lo, format_fraction)} >= "
            f"{shown(hi, format_fraction)}"
        )
    return Fraction(
        lo.numerator * lo.denominator + hi.numerator * hi.denominator,
        lo.denominator ** 2 + hi.denominator ** 2,
    )


MARKOV_SEED_LEFT = Fraction(0, 1)
MARKOV_SEED_RIGHT = Fraction(1, 2)


def markov_fraction(t: Fraction) -> Fraction:
    """The Markov fraction at Farey coordinate t in [0, 1].

    Read off as the index e11/e12 of the a = 0 Cohn matrix at t, which
    cohn_at builds with one matrix power per run of the path.  Boundaries
    map to the seeds (0 -> 0/1, 1 -> 1/2).  The tests compare it with the
    weighted-mediant descend along locate(t); the verify suites check the
    weighted-mediant tree, and the distinctness suite the Vieta walk of
    vieta_walk, neither of which uses Cohn matrices.
    """
    return cohn_index(cohn_at(t, 0))


# ============================================================
# Markov triples
# ============================================================

@dataclass(frozen=True)
class MarkovTriple:
    """Positive integer solution of x^2 + y^2 + z^2 = 3xyz, in tree order.

    Components are (left parent, right parent, node), not sorted by size.
    """

    x: int
    y: int
    z: int

    def __post_init__(self):
        x, y, z = (check_int(c, "triple component", 1) for c in (self.x, self.y, self.z))
        if x * x + y * y + z * z != 3 * x * y * z:
            raise DomainError(f"({shown(x)}, {shown(y)}, {shown(z)}) does not satisfy "
                              "x^2 + y^2 + z^2 = 3xyz")

    def as_tuple(self):
        return (self.x, self.y, self.z)


def vieta_flip(t: MarkovTriple, position: str) -> MarkovTriple:
    """Replace one component by the other root of its quadratic.

    The replaced component c with cofactors a, b becomes 3ab - c, which must
    equal (a^2 + b^2) / c exactly; both are computed and compared, a mismatch
    is an InvariantError (unreachable for a valid triple).
    """
    if position not in ("x", "y", "z"):
        raise DomainError(f"position must be one of 'x', 'y', 'z', got {shown(position)}")
    x, y, z = t.as_tuple()
    c = {"x": x, "y": y, "z": z}[position]
    a, b = {"x": (y, z), "y": (x, z), "z": (x, y)}[position]
    linear = 3 * a * b - c
    quotient, rem = divmod(a * a + b * b, c)
    if rem or quotient != linear:
        raise InvariantError(
            f"flip of {position} in {t.as_tuple()} disagrees: 3ab-c={linear}, (a^2+b^2)/c={quotient} rem {rem}"
        )
    new = {"x": (linear, y, z), "y": (x, linear, z), "z": (x, y, linear)}[position]
    return MarkovTriple(*new)


# Hard ceiling on the Farey denominator q of a triple path: a path has fewer
# than q steps and its Markov numbers grow a few bits per unit of q.
HARD_TRIPLE_CAP = 2**12


def markov_triple_at(path: str) -> MarkovTriple:
    """Markov triple at a tree path, by the Vieta walk of vieta_walk.

    Paths whose Farey denominator q exceeds HARD_TRIPLE_CAP raise
    DepthLimitError before the walk starts: q is tracked with two small ints
    per step, stopping at the first step past the cap.
    """
    lo, hi = 1, 1  # denominators of the Farey parents 0/1 and 1/1
    for step in _check_path(path):
        if step == "L":
            hi += lo
        else:
            lo += hi
        if lo + hi > HARD_TRIPLE_CAP:
            raise DepthLimitError(
                f"triple path denominator {lo + hi} exceeds cap {HARD_TRIPLE_CAP}")
    return vieta_walk(path)


def vieta_walk(path: str) -> MarkovTriple:
    """Walk the triple tree from (1, 2, 5): L keeps x, R keeps y.

    L sends (x, y, z) to (x, z, 3xz - y) and R to (z, y, 3yz - x), a Vieta
    flip reordered so that the previous node becomes a parent.  Each step
    keeps x^2 + y^2 + z^2 - 3xyz, which is 0 at (1, 2, 5), so the walk carries
    plain ints and checks the equation once, in MarkovTriple.  Uncapped; the
    distinctness suite uses it as an independent route on its window.
    """
    x, y, z = 1, 2, 5
    for step in _check_path(path):
        if step == "L":
            y, z = z, 3 * x * z - y
        else:
            x, z = z, 3 * y * z - x
    return MarkovTriple(x, y, z)


def markov_child(x: int, y: int) -> int:
    """Larger root z of z^2 - 3xy z + (x^2 + y^2) = 0 for parent numbers x, y.

    This is the combine rule that regenerates Markov numbers directly on the
    tree; the discriminant 9x^2y^2 - 4(x^2 + y^2) must be a perfect square
    of the right parity or the pair was not a pair of topograph neighbors.
    """
    x, y = check_int(x, "parent number", 1), check_int(y, "parent number", 1)
    disc = 9 * x * x * y * y - 4 * (x * x + y * y)
    root = isqrt(disc)
    if root * root != disc or (3 * x * y + root) % 2:
        raise DomainError(f"parents ({shown(x)}, {shown(y)}) are not adjacent Markov numbers")
    return (3 * x * y + root) // 2


def reduction_factor(lo: Fraction, hi: Fraction) -> int:
    """gcd removed by the weighted mediant; on tree nodes equals p2*q1 - p1*q2."""
    return gcd(
        lo.numerator * lo.denominator + hi.numerator * hi.denominator,
        lo.denominator ** 2 + hi.denominator ** 2,
    )
