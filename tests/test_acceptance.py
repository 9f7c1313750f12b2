"""Acceptance suite: the headline guarantees, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s); a FAIL
line always comes with the assertion failure that caused it.  Budgeted
criteria assert their wall-clock bound too.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from topograph import (
    Mat2,
    cf_eval,
    cf_expand_even,
    cohn_A,
    cohn_B,
    compare_gap,
    convergent_matrix,
    descend,
    enumerate_tree,
    farey_mediant,
    left_companion,
    make_qi,
    markov_cf,
    markov_fraction,
    markov_irrationality,
    mirror,
    periodic_value,
    qi_compare,
    qi_satisfies,
    run_suites,
    springborn_mediant,
)
from topograph.markov import MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


def farey_nodes(depth):
    return list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, depth))


def markov_nodes(depth):
    return list(enumerate_tree(MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT,
                               springborn_mediant, depth))


# 1. depth-3 window of the Markov fraction tree, exact values in place
FRACTION_WINDOW = {
    "": Fraction(2, 5),
    "L": Fraction(5, 13), "R": Fraction(12, 29),
    "LL": Fraction(13, 34), "LR": Fraction(75, 194),
    "RL": Fraction(179, 433), "RR": Fraction(70, 169),
    "LLL": Fraction(34, 89), "LLR": Fraction(507, 1325),
    "LRL": Fraction(2923, 7561), "LRR": Fraction(1120, 2897),
    "RLL": Fraction(2673, 6466), "RLR": Fraction(15571, 37666),
    "RRL": Fraction(6089, 14701), "RRR": Fraction(408, 985),
}


def test_fraction_tree_window():
    with criterion("fraction-tree-window"):
        started = time.perf_counter()
        nodes = markov_nodes(3)
        assert len(nodes) == 15
        assert {n.path: n.value for n in nodes} == FRACTION_WINDOW
        assert time.perf_counter() - started < 1.0


# 2. every Markov fraction with denominator up to 1000
SMALL_DENOMINATOR_CENSUS = [
    Fraction(0, 1), Fraction(1, 2), Fraction(2, 5), Fraction(5, 13),
    Fraction(12, 29), Fraction(13, 34), Fraction(34, 89), Fraction(70, 169),
    Fraction(75, 194), Fraction(89, 233), Fraction(179, 433),
    Fraction(233, 610), Fraction(408, 985),
]


def test_small_denominator_census():
    with criterion("small-denominator-census"):
        found = {MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT}
        found.update(n.value for n in markov_nodes(8) if n.value.denominator <= 1000)
        # depth 8 is enough: the slowest-growing branch already exceeds
        # 1000 there (pure-L denominators 5, 13, 34, 89, 233, 610, 1597)
        assert min(n.value.denominator for n in markov_nodes(9)
                   if len(n.path) == 9) > 1000
        assert sorted(found, key=lambda f: f.denominator) == SMALL_DENOMINATOR_CENSUS


# 3. index identity across six matrix families at depth 10
def test_index_identity_sweep():
    with criterion("index-identity-sweep"):
        started = time.perf_counter()
        report = run_suites(["index"], 10, (-2, -1, 0, 1, 2, 3))[0]
        assert report.ok, report.first_counterexample
        assert report.checks["bottom-row"] == 2047
        assert report.checks["index"] == 2047 * 6
        assert report.checks["top-row"] == 2047 * 6
        assert time.perf_counter() - started < 10.0


# 4. the bilinear node relations, exactly, at every node to depth 10
def test_node_relations_exact():
    with criterion("node-relations-exact"):
        reports = run_suites(["relations"], 10)
        assert reports[0].ok, reports[0].first_counterexample
        assert reports[0].checks["cross-left"] == 2047


# 5. word tree equals direct expansion, letters and values, depth 10
WORD_WINDOW = {
    Fraction(1, 2): (2, 2, 1, 1),
    Fraction(1, 3): (2, 2, 1, 1, 1, 1),
    Fraction(2, 3): (2, 2, 2, 2, 1, 1),
    Fraction(2, 5): (2, 2, 1, 1, 2, 2, 1, 1, 1, 1),
    Fraction(3, 5): (2, 2, 2, 2, 1, 1, 2, 2, 1, 1),
}


def test_word_tree_matches_expansion():
    with criterion("word-tree-matches-expansion"):
        assert markov_cf(Fraction(0)) == (1, 1)
        assert markov_cf(Fraction(1)) == (2, 2)
        for t, word in WORD_WINDOW.items():
            assert markov_cf(t) == word
        reports = run_suites(["words"], 10)
        assert reports[0].ok, reports[0].first_counterexample
        assert reports[0].checks["letters"] == 2047


# 6. two explicit matrix windows, plus the mirrored transposed window
def test_matrix_windows():
    with criterion("matrix-windows"):
        assert cohn_A(1).m == Mat2(1, 1, 1, 2)
        assert cohn_B(1).m == Mat2(3, 2, 4, 3)
        window_one = {
            "": Mat2(7, 5, 11, 8),
            "L": Mat2(18, 13, 29, 21),
            "R": Mat2(41, 29, 65, 46),
        }
        for path, matrix in window_one.items():
            assert descend(cohn_A(1).m, cohn_B(1).m, lambda x, y: x @ y, path).value \
                == matrix

        assert cohn_A(2).m == Mat2(2, 1, 1, 1)
        assert cohn_B(2).m == Mat2(5, 2, 2, 1)
        window_two = {
            "": Mat2(12, 5, 7, 3),
            "L": Mat2(31, 13, 19, 8),
            "R": Mat2(70, 29, 41, 17),
        }
        for path, matrix in window_two.items():
            assert descend(cohn_A(2).m, cohn_B(2).m, lambda x, y: x @ y, path).value \
                == matrix

        mirrored = {
            "": Mat2(12, 7, 5, 3),
            "L": Mat2(70, 41, 29, 17),
            "R": Mat2(31, 19, 13, 8),
        }
        seeds = (cohn_B(2).m.transpose(), cohn_A(2).m.transpose())
        for path, matrix in mirrored.items():
            assert descend(seeds[0], seeds[1], lambda x, y: x @ y, path).value == matrix
            assert matrix == window_two[mirror(path)].transpose()


# 7. closed-form irrationals equal periodized words
IRRATIONAL_WINDOW = {
    Fraction(0): make_qi(1, 1, 2, 5),
    Fraction(1): make_qi(4, 1, 4, 32),
    Fraction(1, 2): make_qi(9, 1, 10, 221),
    Fraction(1, 3): make_qi(23, 1, 26, 1517),
    Fraction(2, 3): make_qi(53, 1, 58, 7565),
}


def test_irrational_window():
    with criterion("irrational-window"):
        for t, expected in IRRATIONAL_WINDOW.items():
            word = markov_cf(t)
            periodized = periodic_value(word)
            assert periodized == expected
            closed = markov_irrationality(markov_fraction(t))
            assert closed == expected
            # same number through its fixed-point quadratic as well
            m = convergent_matrix(word)
            assert qi_satisfies(closed, m.e21, m.e22 - m.e11, -m.e12)
        # the value at t = 1 is 1 + sqrt(2) in disguise
        assert qi_satisfies(IRRATIONAL_WINDOW[Fraction(1)], 1, -2, -1)


# 8. rational companions decrease strictly onto their limits
def test_companion_convergence():
    with criterion("companion-convergence"):
        for t in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2, 5)):
            word = markov_cf(t)
            limit = periodic_value(word)
            base = convergent_matrix(word)
            previous = None
            for m in range(1, 9):
                value = left_companion(t, m)
                assert qi_compare(value, limit) == 1
                assert convergent_matrix(word * m) == base ** m
                if previous is not None:
                    assert compare_gap(value, previous, limit) == -1
                previous = value


# 9. deep window: distinct Markov numbers, strictly ordered fractions
def test_deep_window_distinct_and_ordered():
    with criterion("deep-window-distinct-and-ordered"):
        started = time.perf_counter()
        fnodes = farey_nodes(12)
        mnodes = markov_nodes(12)
        assert len(mnodes) == 8191
        numbers = {n.value.denominator for n in mnodes}
        assert len(numbers) == 8191
        pairs = sorted(
            (f.value, m.value) for f, m in zip(fnodes, mnodes)
        )
        assert all(a[1] < b[1] for a, b in zip(pairs, pairs[1:]))
        assert time.perf_counter() - started < 60.0


# 10. randomized property batteries
def test_property_batteries():
    with criterion("property-batteries"):
        rng = random.Random(0xACCE97)

        def random_word(parity=None):
            n = rng.randrange(1, 13)
            if parity is not None and n % 2 != parity:
                n += 1
            return tuple(rng.randrange(1, 10) for _ in range(n))

        for _ in range(500):
            u, v = random_word(0), random_word(0)
            assert convergent_matrix(u + v) == convergent_matrix(u) @ convergent_matrix(v)
            w = random_word()
            assert convergent_matrix(w).det() == (-1) ** len(w)

        lo, hi = Fraction(0), Fraction(1)
        for _ in range(500):
            mid = farey_mediant(lo, hi)
            assert lo < mid < hi
            if rng.random() < 0.5:
                hi = mid
            else:
                lo = mid
            if hi.denominator > 10**40:
                lo, hi = Fraction(0), Fraction(1)

        for _ in range(10**4):
            q = rng.randrange(1, 10**6)
            p = rng.randrange(q + 1, 3 * 10**6)
            x = Fraction(p, q)
            if x <= 1:
                continue
            assert cf_eval(cf_expand_even(x)) == x
