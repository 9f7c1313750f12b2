"""Rational building blocks: fractions, Farey mediants, continued fraction
words, and 2x2 integer matrices.

Everything here is exact.  Fractions are stdlib ``fractions.Fraction`` (always
reduced, denominator positive); continued fraction words are tuples of
positive ints; matrices are plain 4-tuples of ints wrapped in a frozen
dataclass.  check_rational is the one rule by which a function argument
becomes a Fraction: an int or a Fraction, never a float, a bool or a string.
check_int is the one rule for an integer argument: an int, never a bool, at
least a minimum where the argument has one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PreconditionError, shown


# ============================================================
# fractions
# ============================================================

def make_fraction(num: int, den: int) -> Fraction:
    """Reduced fraction with positive denominator; zero denominator is a DomainError."""
    check_int(num, "fraction numerator")
    if check_int(den, "fraction denominator") == 0:
        raise DomainError("fraction denominator must be nonzero")
    return Fraction(num, den)


def check_int(x, what: str, least: int | None = None) -> int:
    """x if an int, not a bool, and not below least if given; else DomainError naming what."""
    if isinstance(x, bool) or not isinstance(x, int) or least is not None and x < least:
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{what} must be an int{bound}, got {shown(x)}")
    return x


def check_rational(x, what: str) -> Fraction:
    """The one rule for a rational argument: a Fraction as it is, an int as
    Fraction(x); a bool, float, Decimal or string raises DomainError naming what."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError(f"{what} must be an int or a Fraction, got {x!r}")
    return Fraction(x)


# Integer text: ASCII digits with an optional sign.  int alone would also
# read underscores and other scripts' digits.
_INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str, what: str) -> int:
    """The one rule for integer text: blanks around it dropped, then
    [+-]?[0-9]+ in ASCII, or DomainError naming what."""
    digits = text.strip()
    if not _INTEGER_TEXT.fullmatch(digits):
        raise DomainError(f"{what} must be ASCII digits with an optional sign, got {text!r}")
    return int(digits)


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or a bare integer string into a Fraction.

    Blanks around the whole text are dropped; each side is integer text
    (parse_int) with no blank beside the slash, or DomainError says the text
    cannot be parsed.
    """
    num, slash, den = text.strip().partition("/")
    sides = (num, den) if slash else (num, "1")
    if any(side != side.strip() for side in sides):
        raise DomainError(f"cannot parse fraction from {text!r}")
    try:
        num, den = (parse_int(side, "fraction side") for side in sides)
    except DomainError:
        raise DomainError(f"cannot parse fraction from {text!r}") from None
    return make_fraction(num, den)


def format_fraction(x: Fraction) -> str:
    """Render as 'p/q', keeping the denominator even when it is 1."""
    return f"{x.numerator}/{x.denominator}"


def is_farey_neighbors(x: Fraction, y: Fraction) -> bool:
    """True when |x.num * y.den - y.num * x.den| == 1."""
    return abs(x.numerator * y.denominator - y.numerator * x.denominator) == 1


def farey_mediant(x: Fraction, y: Fraction) -> Fraction:
    """Mediant (a+c)/(b+d) of two Farey neighbors a/b and c/d.

    The neighbor condition makes the result automatically reduced and a
    neighbor of both inputs; calling this on non-neighbors is a
    PreconditionError rather than a silently unreduced value.
    """
    if not is_farey_neighbors(x, y):
        raise PreconditionError(
            f"{shown(x, format_fraction)} and {shown(y, format_fraction)} are not Farey neighbors"
        )
    return Fraction(
        x.numerator + y.numerator, x.denominator + y.denominator
    )


# ============================================================
# continued fraction words
# ============================================================
# A word (c1, ..., ck) stands for the finite continued fraction
# c1 + 1/(c2 + 1/(... + 1/ck)).  The operations below only ever deal in
# even-length words because concatenation of even words is associative on
# values, which is what the word tree is built on.

def _letters(word) -> tuple:
    w = tuple(word)
    if not w:
        raise DomainError("continued fraction word must be nonempty")
    # Fast path for plain ints; the loop names the first bad letter (and
    # accepts int subclasses other than bool).
    if not (set(map(type, w)) == {int} and min(w) >= 1):
        for c in w:
            check_int(c, "continued fraction quotient", 1)
    return w


class Word(tuple):
    """A continued fraction word, checked as it is made (and as it is unpickled):
    a nonempty tuple of ints >= 1.  _validate_word takes any Word as it is."""

    __slots__ = ()

    def __new__(cls, letters):
        return tuple.__new__(cls, _letters(letters))

    def __reduce__(self):  # pickle rebuilds through __new__, and so checks, at every protocol
        return Word, (tuple(self),)


def _validate_word(word, *, even: bool = False) -> tuple:
    w = word if isinstance(word, Word) else _letters(word)
    if even and len(w) % 2:
        raise PreconditionError(f"word length must be even, got {len(w)}")
    return w


def partial_quotients(p: int, q: int) -> list:
    """Partial quotients [a0, a1, ..., an] of p/q for q > 0, by Euclid.

    For a non-integer p/q the last quotient is at least 2.  The one Euclid
    of the package: cf_expand_even and tree.locate_runs both read it.  The
    first quotient may be <= 0 or large, so it is taken by divmod; every
    later one is at least 1, and most are 1 or 2, so a subtraction or two
    finds it before divmod is tried: over the verify window's 2,047 targets
    at depth 10, 0.050 s against 0.090 s for divmod alone (median of 7,
    2-core VM, CPython 3.11).  A q <= 0 raises PreconditionError.
    """
    if q <= 0:
        raise PreconditionError(f"partial quotients need q > 0, got {shown(q, str)}")
    a, q_next = divmod(p, q)
    quotients = [a]
    p, q = q, q_next
    while q:
        r = p - q
        if r < q:
            quotients.append(1)
        else:
            r -= q
            if r < q:
                quotients.append(2)
            else:
                a, r = divmod(r, q)
                quotients.append(a + 2)
        p, q = q, r
    return quotients


def cf_expand_even(x: Fraction) -> tuple:
    """Canonical even-length continued fraction word of a rational x > 1.

    Takes the partial quotients (which for a non-integer end with a final
    quotient >= 2, and for an integer n are just (n,)), then if the length is
    odd rewrites the tail c -> (c - 1, 1).  The rewrite preserves the value,
    so cf_eval inverts this exactly.
    """
    x = check_rational(x, "x")
    if x <= 1:
        raise DomainError(f"even expansion needs x > 1, got {shown(x, format_fraction)}")
    word = partial_quotients(x.numerator, x.denominator)
    if len(word) % 2:
        word[-1] -= 1
        word.append(1)
    return tuple(word)


# Letters per leaf of the convergent product tree.  Markov words use only a
# few distinct chunks of this size, so the per-call memo pays off.
_CHUNK = 16
# Longest word run by the per-letter recurrence alone.  Below about this
# length the tree's slicing, hashing and pairing cost more than the memo and
# the balanced products save: on Markov words the tree took 1.1-2x as long
# as the recurrence at 17-256 letters, 0.8x at 257-512, 0.25x at 2-4k.
_PLAIN_MAX = 256


def _leaf_convergents(word) -> tuple:
    """(p_k, p_{k-1}, q_k, q_{k-1}) by the per-letter recurrence, as plain ints.

    p_j = c_j p_{j-1} + p_{j-2} (same for q) from
    p_{-1}, p_{-2}, q_{-1}, q_{-2} = 1, 0, 0, 1.
    """
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for c in word:
        p, p_prev = c * p + p_prev, p
        q, q_prev = c * q + q_prev, q
    return p, p_prev, q, q_prev


def _convergents(word) -> tuple:
    """(p_k, p_{k-1}, q_k, q_{k-1}) of an already validated word (a tuple).

    These are the entries of the product of (c 1 / 1 0) over the word, a
    homomorphism from concatenation, so a word longer than _PLAIN_MAX is cut
    into _CHUNK-letter chunks, each chunk's matrix comes from
    _leaf_convergents (memoized by the chunk for this call), and the chunk
    matrices are multiplied pairwise by _mul, level by level.  Balanced
    products multiply big ints of equal size, which makes the whole
    subquadratic in the word length, where a left-to-right fold is
    quadratic.  The tests compare it with a Mat2 fold per letter and, on
    long words, with the recurrence over every letter.
    """
    if len(word) <= _PLAIN_MAX:
        return _leaf_convergents(word)
    memo = {}
    level = []
    for i in range(0, len(word), _CHUNK):
        chunk = word[i:i + _CHUNK]
        m = memo.get(chunk)
        if m is None:
            m = memo[chunk] = _leaf_convergents(chunk)
        level.append(m)
    while len(level) > 1:  # pairs multiplied, an odd one out carried up
        level = list(map(_mul, level[::2], level[1::2])) + level[len(level) // 2 * 2:]
    return level[0]


def cf_eval(word) -> Fraction:
    """Exact value p_k / q_k of a continued fraction word."""
    p, _, q, _ = _convergents(_validate_word(word))
    return Fraction(p, q)


def cf_concat(a, b) -> tuple:
    """Concatenate two even-length words; the result is again even."""
    return _validate_word(a, even=True) + _validate_word(b, even=True)


def format_cf_word(word, periodic: bool = False) -> str:
    """Render like '[2,2,1,1]'; a leading '~' marks periodic repetition."""
    # The letter-by-letter reference.  Exports format only the cf tree's two
    # seeds here and splice every other word's render from its parents'
    # (export._splice); the tests check each splice against this.
    body = "[" + ",".join([str(c) for c in word]) + "]"
    return "~" + body if periodic else body


def parse_cf_word(text: str) -> tuple:
    """Inverse of format_cf_word (the '~' marker is accepted and dropped)."""
    s = text.strip()
    if s.startswith("~"):
        s = s[1:]
    if not (s.startswith("[") and s.endswith("]")):
        raise DomainError(f"cannot parse word from {text!r}")
    try:
        return _validate_word(parse_int(c, "continued fraction quotient")
                              for c in s[1:-1].split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse word from {text!r}") from exc


# ============================================================
# 2x2 integer matrices
# ============================================================

def _mul(a, b) -> tuple:
    """Product a.b of two (e11, e12, e21, e22) tuples or Mat2s, the package's one 2x2 product."""
    (a11, a12, a21, a22), (b11, b12, b21, b22) = a, b
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)


def _pow(a: tuple, n: int) -> tuple:
    """a^n for an int n >= 0, squaring only while higher bits of n remain (Knuth,
    TAOCP vol. 2, 4.6.3, Algorithm A): a^(2^k) is k squarings and no other product."""
    result = None
    while True:
        if n & 1:
            result = a if result is None else _mul(result, a)
        n >>= 1
        if not n:
            return (1, 0, 0, 1) if result is None else result
        a = _mul(a, a)


@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix (e11 e12 / e21 e22), exact; it unpacks as the
    (e11, e12, e21, e22) tuple the trees carry, and @ and ** wrap _mul, _pow."""

    e11: int
    e12: int
    e21: int
    e22: int

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    def __iter__(self):
        return iter((self.e11, self.e12, self.e21, self.e22))

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(*_mul(self, other))

    def __pow__(self, n: int) -> "Mat2":
        check_int(n, "matrix power", 0)
        return Mat2(*_pow(self, n))

    def det(self) -> int:
        return self.e11 * self.e22 - self.e12 * self.e21

    def trace(self) -> int:
        return self.e11 + self.e22

    def transpose(self) -> "Mat2":
        return Mat2(self.e11, self.e21, self.e12, self.e22)


def format_mat2(m) -> str:
    return "[[{},{}],[{},{}]]".format(*m)


def convergent_matrix(word) -> Mat2:
    """Product of (c 1 / 1 0) over the word, left to right.

    Columns are the last two convergents: (p_k p_{k-1} / q_k q_{k-1}).
    Determinant is (-1)^len(word), and the map is a homomorphism from word
    concatenation to matrix multiplication.  Built by _convergents, a
    product tree over chunks whose leaves run the plain-int per-letter
    recurrence, not one Mat2 product per letter; the tests compare it with
    that per-letter Mat2 fold (the reference), and the homomorphism suite
    checks it against products of its own values.
    """
    return Mat2(*_convergents(_validate_word(word)))
