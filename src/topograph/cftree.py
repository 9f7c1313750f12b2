"""Continued fraction words of Markov fractions and their periodizations.

The word tree is seeded by ((2,2), (1,1)) and combined by concatenation; it
is the mirror image of the fraction trees, so the word for coordinate t sits
at the mirrored path, and tree.mirrored turns it into a tree addressed like
the fraction trees.  Two identities become executable here: the word at t is
exactly the canonical even expansion of 2 + (Markov fraction at t), and
repeating it forever yields the quadratic irrational
(2p + q + sqrt(9q^2 - 4)) / (2q) built from that fraction p/q.  A word's
matrix is its parents' product, so periodic_value and left_companion read
markov_cf's word's off the matrix tree by its t, in one _pow per run.

Quadratic irrationals are kept as exact integer 4-tuples; comparisons against
rationals and substitution into integer quadratics are sign computations on
integers, so nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from operator import add, mul

from .errors import DomainError, shown
from .rational import Word, _convergents, _mul, _pow, _validate_word, check_int, check_rational
from .tree import check_point_size, mirrored, value_at

WORD_SEED_LEFT = (2, 2)
WORD_SEED_RIGHT = (1, 1)
# Their convergent tuples seed the irrational tree; its mirror holds markov_cf(t)'s at t.
MATRIX_SEED_LEFT = _convergents(WORD_SEED_LEFT)
MATRIX_SEED_RIGHT = _convergents(WORD_SEED_RIGHT)
_MIRRORED_MATRIX_TREE = mirrored(MATRIX_SEED_LEFT, MATRIX_SEED_RIGHT, _mul)


class MarkovWord(Word):
    """The Word at coordinate t, made only by markov_cf; it keeps t read-only,
    and pickles as a plain Word, checked again as it is loaded."""

    def __new__(cls, *args):
        raise TypeError("a MarkovWord is made only by markov_cf")

    def __setattr__(self, name, *value):  # and __delattr__
        raise AttributeError(f"a MarkovWord's {name} is read-only")

    __delattr__ = __setattr__


def markov_cf(t: Fraction) -> MarkovWord:
    """Even continued fraction word of 2 + markov_fraction(t), as a MarkovWord.

    Built structurally, without expanding a fraction: value_at on the mirror
    image of the word tree, which puts (1,1) at t = 0 and (2,2) at t = 1.
    Joining and repeating the seeds keeps letters 1, 2 and an even length, so
    the word is made unchecked, with its checked t.  The tests compare it with
    the cf_concat descend on the mirrored path, the words suite with cf_expand_even.
    """
    word = tuple.__new__(MarkovWord, value_at(t, *mirrored(WORD_SEED_LEFT, WORD_SEED_RIGHT, add), mul))
    vars(word)["t"] = check_rational(t, "coordinate")
    return word


# ============================================================
# quadratic irrationals
# ============================================================

@dataclass(frozen=True)
class QuadraticIrrational:
    """(P + B*sqrt(D)) / Q with B > 0, Q > 0, D > 0 nonsquare, gcd(P, B, Q) = 1.

    D is kept as-is (never factored), so equality of instances means equality
    as tuples; values with different D are compared through qi_satisfies or
    qi_compare instead.
    """

    P: int
    B: int
    Q: int
    D: int


def make_qi(P: int, B: int, Q: int, D: int) -> QuadraticIrrational:
    """Canonicalize and validate a quadratic irrational."""
    P, B, Q, D = check_int(P, "P"), check_int(B, "B"), check_int(Q, "Q"), check_int(D, "D")
    if D <= 0 or isqrt(D) ** 2 == D:
        raise DomainError(f"D must be a positive nonsquare, got {shown(D, str)}")
    if B <= 0 or Q <= 0:
        raise DomainError(f"B and Q must be positive, got B={shown(B, str)}, Q={shown(Q, str)}")
    g = gcd(gcd(abs(P), B), Q)
    return QuadraticIrrational(P // g, B // g, Q // g, D)


def format_qi(x: QuadraticIrrational) -> str:
    coeff = "" if x.B == 1 else str(x.B)
    return f"({x.P}+{coeff}√{x.D})/{x.Q}"


def periodic_value(word) -> QuadraticIrrational:
    """Value of the infinite periodic continued fraction with this period.

    It is the fixed point of the word's convergent tuple: for markov_cf's word
    at t, read off the mirrored matrix tree in one _pow per run of t's path
    (with markov_cf, 0.21 ms against the letters' 0.44 ms at t = 1878/1937;
    2-core VM, CPython 3.11.7); for any other word, from its letters by
    _convergents' chunk tree.  Even length keeps the discriminant positive and
    the root above 1.
    """
    if type(word) is MarkovWord:
        return fixed_point(value_at(word.t, *_MIRRORED_MATRIX_TREE, _pow))
    return fixed_point(_convergents(_validate_word(word, even=True)))


def fixed_point(m) -> QuadraticIrrational:
    """Larger root of q_k x^2 + (q_{k-1} - p_k) x - p_{k-1} = 0.

    That is the periodization of any even word whose convergent matrix is
    m = (p_k p_{k-1} / q_k q_{k-1}), a Mat2 or its tuple: periodic_value's
    from the kernel, or the one the verify window and irrational export carry.
    Its discriminant tr^2 - 4 det lies strictly between (|tr| - 1)^2 and tr^2
    at det 1 and |tr| >= 3, so int entries with q_k > 0 skip make_qi's isqrt.
    """
    pk, pk1, qk, qk1 = m
    tr = pk + qk1
    if (type(pk) is type(pk1) is type(qk) is type(qk1) is int and qk > 0
            and not -3 < tr < 3 and pk * qk1 - pk1 * qk == 1):
        return QuadraticIrrational(pk - qk1, 1, 2 * qk, tr * tr - 4)
    return make_qi(pk - qk1, 1, 2 * qk, (qk1 - pk) ** 2 + 4 * qk * pk1)


def markov_irrationality(mf: Fraction) -> QuadraticIrrational:
    """(2p + q + sqrt(9q^2 - 4)) / (2q) for a Markov fraction p/q.

    Validity of mf as a Markov fraction is the caller's business; the formula
    itself only needs a denominator, and 9q^2 - 4 is never a perfect square.
    """
    mf = check_rational(mf, "Markov fraction")
    p, q = mf.numerator, mf.denominator
    return make_qi(2 * p + q, 1, 2 * q, 9 * q * q - 4)


def left_companion(t: Fraction, m: int) -> Fraction:
    """Rational approximant from m repetitions of the word at t.

    These sit above the periodization and walk down onto it as m grows.
    By the homomorphism the repeated word's matrix is the word's to the m-th
    power, one kernel _pow, so no word of 2qm letters is built; q * m beyond
    HARD_POINT_CAP raises DepthLimitError before any work.
    """
    check_int(m, "repetition count", 1)
    check_point_size(check_rational(t, "coordinate").denominator * m)
    p, _, q, _ = _pow(value_at(t, *_MIRRORED_MATRIX_TREE, _pow), m)
    return Fraction(p, q)


# ============================================================
# exact comparisons
# ============================================================

def qi_compare(r, x: QuadraticIrrational) -> int:
    """Sign of r - x for rational r: -1, 0, or +1, computed on integers.

    r - x has the sign of s - tau*sqrt(D) with s = u*Q - v*P and tau = v*B
    for r = u/v in lowest terms (v > 0).  When s > 0 the comparison reduces
    to s^2 against tau^2 * D; ties cannot happen for nonsquare D but are
    reported honestly anyway.
    """
    r = check_rational(r, "r")
    u, v = r.numerator, r.denominator
    s = u * x.Q - v * x.P
    tau = v * x.B
    if s <= 0:
        return -1
    lhs, rhs = s * s, tau * tau * x.D
    if lhs > rhs:
        return 1
    if lhs < rhs:
        return -1
    return 0


def qi_satisfies(x: QuadraticIrrational, a2: int, a1: int, a0: int) -> bool:
    """Does a2*x^2 + a1*x + a0 = 0 hold exactly?

    Substituting (P + B*sqrt(D))/Q splits into a rational part and a
    sqrt(D) part; both integer coefficients must vanish.
    """
    rational = a2 * (x.P * x.P + x.B * x.B * x.D) + a1 * x.P * x.Q + a0 * x.Q * x.Q
    radical = 2 * a2 * x.P * x.B + a1 * x.B * x.Q
    return rational == 0 and radical == 0


def compare_gap(r1, r2, x: QuadraticIrrational) -> int:
    """Compare |r1 - x| with |r2 - x| exactly: -1 closer, 0 tied, +1 farther.

    |r1 - x|^2 - |r2 - x|^2 = (r1 - r2) * (r1 + r2 - 2x), so the answer is a
    product of two signs, the second of which is a qi_compare of the average.
    """
    r1, r2 = check_rational(r1, "r1"), check_rational(r2, "r2")
    if r1 == r2:
        return 0
    left = 1 if r1 > r2 else -1
    right = qi_compare((r1 + r2) / 2, x)
    return left * right
