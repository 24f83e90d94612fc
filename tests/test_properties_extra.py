"""Second round of property tests: predicate decomposition equivalence,
APH monotonicity, SQL parser totality on generated queries, and the
deterministic TOP-N threshold invariant."""

from hypothesis import given, settings, strategies as st

from repro.core.expr import And, Cmp, Col, Like, Lit, Not, Or
from repro.core.filtering import decompose_predicate, simplify, to_nnf
from repro.switch.tcam_log import ApproxLog

# -- expression generator -------------------------------------------------------

_COLUMNS = ("a", "b", "c")
_STR_COLUMNS = ("s",)

comparisons = st.builds(
    Cmp,
    st.sampled_from((">", ">=", "<", "<=", "==", "!=")),
    st.sampled_from([Col(c) for c in _COLUMNS]),
    st.integers(-10, 10).map(Lit),
)
likes = st.builds(
    Like,
    st.sampled_from([Col(c) for c in _STR_COLUMNS]),
    st.sampled_from(("a%", "%b", "a_c", "abc")),
)
leaves = st.one_of(comparisons, likes)


def _boolean_exprs(depth=3):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Not, children),
        ),
        max_leaves=8,
    )


rows = st.fixed_dictionaries({
    "a": st.integers(-10, 10),
    "b": st.integers(-10, 10),
    "c": st.integers(-10, 10),
    "s": st.sampled_from(("abc", "axc", "zb", "b")),
})


class TestDecompositionProperties:
    @given(_boolean_exprs(), rows)
    @settings(max_examples=200)
    def test_nnf_equivalent(self, expr, row):
        assert bool(expr.evaluate(row)) == bool(to_nnf(expr).evaluate(row))

    @given(_boolean_exprs(), rows)
    @settings(max_examples=200)
    def test_simplify_equivalent(self, expr, row):
        nnf = to_nnf(expr)
        assert bool(nnf.evaluate(row)) == bool(simplify(nnf).evaluate(row))

    @given(_boolean_exprs(), rows)
    @settings(max_examples=200)
    def test_switch_expr_implied_by_original(self, expr, row):
        """Soundness of tautology substitution: every row the original
        predicate accepts, the switch predicate accepts too — so the
        switch never prunes a result row."""
        decomposed = decompose_predicate(expr)
        if expr.evaluate(row):
            assert decomposed.switch_expr.evaluate(row)

    @given(_boolean_exprs())
    @settings(max_examples=200)
    def test_switch_expr_is_switch_computable(self, expr):
        decomposed = decompose_predicate(expr)
        assert decomposed.switch_expr.switch_supported()


class TestAPHProperties:
    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    @settings(max_examples=300)
    def test_monotone(self, x, y):
        approx = ApproxLog(beta_bits=20)
        if x <= y:
            assert approx.approx_log2(x) <= approx.approx_log2(y)

    @given(st.lists(st.integers(1, 2**32), min_size=2, max_size=2),
           st.lists(st.integers(1, 2**32), min_size=2, max_size=2))
    @settings(max_examples=200)
    def test_dominance_implies_score_order(self, p, q):
        """The skyline requirement: if p dominates q coordinate-wise,
        APH(p) >= APH(q) — so no skyline point is ever outscored by a
        point it dominates."""
        approx = ApproxLog(beta_bits=20)
        if all(a >= b for a, b in zip(p, q)):
            assert approx.score(p) >= approx.score(q)


class TestTopNThresholdInvariant:
    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=500),
           st.integers(1, 30), st.integers(1, 8))
    @settings(max_examples=100)
    def test_pruned_implies_n_larger_exist(self, stream, n, w):
        """Whenever the deterministic pruner drops a value, at least n
        strictly-larger-or-equal values were already seen — the direct
        statement of why threshold pruning is sound."""
        from repro.core.topn import TopNDeterministic

        pruner = TopNDeterministic(n=n, thresholds=w)
        seen = []
        for value in stream:
            if pruner.offer(value):
                at_least = sum(1 for v in seen if v >= value)
                assert at_least >= n
            seen.append(value)

