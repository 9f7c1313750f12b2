"""The matrix trees carry int 4-tuples: a Mat2 is built for the seeds alone.

rational._mul is the package's one 2x2 product, and the exports of the
matrix kinds and the index and periodization suites walk it on
(e11, e12, e21, e22) tuples.  So the number of Mat2s they build does not
grow with the tree.  Depths 3 and 7 are below both split thresholds, so
every Mat2 is counted in this process.
"""

import pytest

from topograph import Mat2, build_export, render, run_suites
from topograph.export import EXPORT_FORMATS
from topograph.verify import DEFAULT_A_VALUES

DEPTHS = (3, 7)


def _mat2_count(monkeypatch, run) -> int:
    """How many Mat2s run() builds."""
    made, real = [], Mat2.__init__

    def counting(self, *args, **kwargs):
        made.append(None)
        real(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Mat2, "__init__", counting)
        run()
    return len(made)


@pytest.mark.parametrize("kind", ["markov", "triple", "cohn", "irrational"])
@pytest.mark.parametrize("fmt", sorted(EXPORT_FORMATS))
def test_an_export_builds_a_mat2_per_seed_not_per_node(monkeypatch, kind, fmt):
    counts = [_mat2_count(monkeypatch, lambda: render(build_export(kind, depth), fmt))
              for depth in DEPTHS]
    # The seed pair, each made through cohn_A and cohn_B; the irrational
    # tree's seeds are cftree's tuples, made once at import.
    assert counts == [0 if kind == "irrational" else 2] * 2


def test_the_matrix_suites_build_a_mat2_per_seed_not_per_node(monkeypatch):
    counts = [_mat2_count(monkeypatch, lambda: run_suites(["index", "periodization"], depth))
              for depth in DEPTHS]
    # Each Cohn tree's seed pair; the carried product tree's are cftree's tuples.
    assert counts == [2 * len(DEFAULT_A_VALUES)] * 2
