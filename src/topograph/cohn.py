"""Cohn matrices: the SL(2,Z) shadow of the Markov fraction tree.

For each integer parameter a there is a matrix tree seeded by the pair
(A(a), B(a)) below and combined by matrix multiplication.  Every matrix in
it has determinant 1 and trace equal to three times its upper-right entry,
and the ratio e11/e12 of its top row recovers a + (the Markov fraction at
the same tree position).  The index suite in verify sweeps a window of the
tree and checks all of that plus monotonicity, entry formulas, and, for
a = 0, the closed forms of the bottom row.

That ratio is the source paper's theorem (topograph, arXiv 2604.17401):
Springborn's Markov fractions are the index of Aigner's Cohn matrices
(M. Aigner, Markov's Theorem and 100 Years of the Uniqueness Conjecture,
Springer 2013).  In one integer identity, for every coordinate t and a,

    cohn_at(t, a).m = Q_a @ M.transpose() @ Q_a^-1,   Q_a = (1 0 / 2-a 1),

where M = convergent_matrix(markov_cf(t)) = (p_k p_k-1 / q_k q_k-1), so
e11/e12 = p_k/q_k - 2 + a, the Markov fraction plus a, and the transpose
makes the word tree the mirror image of the Cohn tree.  The markov and
triple exports grow the a = 0 tree and read e11/e12 and e12 off it;
tests/test_point_routes.py checks the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthLimitError, DomainError, InvariantError, shown
from .rational import Mat2, _mul, _pow, check_int
from .tree import value_at


@dataclass(frozen=True)
class CohnMatrix:
    """A matrix from the Cohn tree, tagged with its parameter.

    Construction checks that a and the four entries are ints (check_int)
    and re-checks the two defining invariants (determinant 1, trace =
    3 * e12) so a corrupted matrix cannot masquerade as a Cohn one.
    """

    m: Mat2
    a: int

    def __post_init__(self):
        check_int(self.a, "Cohn parameter")
        m = _check_entries(self.m)
        if m.det() != 1:
            raise InvariantError(f"determinant must be 1, got {shown(m.det())} for {_shown(m)}")
        if m.trace() != 3 * m.e12:
            raise InvariantError(
                f"trace {shown(m.trace())} != 3 * e12 = {shown(3 * m.e12)} for {_shown(m)}"
            )


def _check_entries(m: Mat2) -> Mat2:
    """m, once each entry passes check_int; _mul, the trees' combine, checks none."""
    for entry in m:
        check_int(entry, "matrix entry")
    return m


def _shown(m: Mat2) -> str:
    """m as repr shows it, each entry through errors.shown."""
    e11, e12, e21, e22 = map(shown, m)
    return f"Mat2(e11={e11}, e12={e12}, e21={e21}, e22={e22})"


def _matrix(c) -> Mat2:
    """The matrix of a CohnMatrix, checked when it was made, or a bare Mat2, checked here."""
    return c.m if isinstance(c, CohnMatrix) else _check_entries(c)


# Every matrix entry of the parameter-a tree carries a's digits: a depth-8
# json export took 3.1 s and wrote 25 MB at a = 10^4000, 0.03 s at a = 2.
HARD_A_CAP = 2**64


def check_cohn_parameter(a: int) -> None:
    """Refuse a parameter the Cohn trees do not take; cohn_A and cohn_B call it first.

    A non-int a, a bool included, raises DomainError, and |a| >= HARD_A_CAP
    DepthLimitError.
    """
    if not -HARD_A_CAP < check_int(a, "Cohn parameter") < HARD_A_CAP:
        raise DepthLimitError(f"Cohn parameter of {a.bit_length()} bits exceeds cap |a| < 2**64")


def _a_seed(a: int) -> tuple:
    return a, 1, 3 * a - a * a - 1, 3 - a


def _b_seed(a: int) -> tuple:
    return 2 * a + 1, 2, -2 * a * a + 4 * a + 2, 5 - 2 * a


def cohn_A(a: int) -> CohnMatrix:
    """Left seed of the parameter-a tree; sits at coordinate t = 0."""
    check_cohn_parameter(a)
    return CohnMatrix(Mat2(*_a_seed(a)), a)


def cohn_B(a: int) -> CohnMatrix:
    """Right seed of the parameter-a tree; sits at coordinate t = 1."""
    check_cohn_parameter(a)
    return CohnMatrix(Mat2(*_b_seed(a)), a)


def cohn_at(t: Fraction, a: int = 0) -> CohnMatrix:
    """Cohn matrix at coordinate t in [0, 1] for parameter a.

    value_at gives the seeds at the boundaries and one _pow and _mul of entry
    tuples per run of the path inside.  The tests compare it with the
    step-by-step Mat2 @ descend along locate(t); the index suite checks the
    enumerated Cohn tree against the Markov fractions.  a is checked once,
    here, and the result once, as a CohnMatrix.
    """
    check_cohn_parameter(a)
    return CohnMatrix(Mat2(*value_at(t, _a_seed(a), _b_seed(a), _mul, _pow)), a)


def cohn_index(c) -> Fraction:
    """Top-row ratio e11/e12; accepts a CohnMatrix or a bare Mat2."""
    m = _matrix(c)
    if m.e12 == 0:
        raise DomainError(f"index undefined: e12 = 0 in {_shown(m)}")
    return Fraction(m.e11, m.e12)


def trace_map(c) -> int:
    """trace / 3, which the tree invariants force to equal e12 (a Markov number)."""
    m = _matrix(c)
    q, r = divmod(m.trace(), 3)
    if r:
        raise InvariantError(f"trace {shown(m.trace())} is not divisible by 3 in {_shown(m)}")
    if q != m.e12:
        raise InvariantError(f"trace/3 = {shown(q)} but e12 = {shown(m.e12)} in {_shown(m)}")
    return q

