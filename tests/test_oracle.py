import itertools
import time

import pytest

from splittree import oracle
from splittree.errors import InputError, LimitError
from splittree.oracle import (
    OracleConfig,
    kraft_check,
    oracle_enumerate_trees,
    oracle_recursive,
    run_oracle,
)
from splittree.signature import canonicalize, merge_reduce, omega
from splittree.solver import decide


class TestRecursive:
    @pytest.mark.parametrize(
        "k,depths,expected",
        [
            (6, [5, 7, 7, 8, 8, 9], True),
            (2, [1, 1], True),
            (3, [2, 2, 2], False),
            (2, [0], True),
            (2, [0, 0], False),
        ],
    )
    def test_verdicts(self, k, depths, expected):
        assert oracle_recursive(k, depths) is expected

    def test_limit(self):
        with pytest.raises(LimitError):
            oracle_recursive(2, [1] * 9)
        assert oracle_recursive(2, [1] * 9, limit=9) is False

    def test_truncation_does_not_change_verdict(self):
        # the reductions used by the solver cut large values; doing the
        # same inside the plain recursion must not flip any answer
        def truncated_recursive(k, sig):
            if len(sig) == 1:
                return sig[0] >= 0
            for i, j in itertools.combinations(range(len(sig)), 2):
                if truncated_recursive(k, merge_reduce(k, sig, i, j)):
                    return True
            return False

        for k in (2, 3, 4, 6):
            for n in range(1, 5):
                for depths in itertools.combinations_with_replacement(range(7), n):
                    sig = canonicalize(depths)
                    assert truncated_recursive(k, sig) == oracle_recursive(k, sig), (k, sig)


class TestEnumerate:
    @pytest.mark.parametrize(
        "k,depths,expected",
        [
            (3, [1, 2, 3], False),
            (2, [1, 1], True),
            (6, [5, 7], True),
            (3, [2, 2, 2], False),
            (4, [2, 2, 2], False),
            (6, [1, 2, 3, 4, 5], False),
            (6, [4, 5, 6, 7, 8], True),
        ],
    )
    def test_verdicts(self, k, depths, expected):
        assert oracle_enumerate_trees(k, depths) is expected

    def test_limit(self):
        with pytest.raises(LimitError):
            oracle_enumerate_trees(6, [5, 7, 7, 8, 8, 9])
        assert oracle_enumerate_trees(6, [5, 7, 7, 8, 8, 9], limit=6) is True

    def test_agrees_with_recursion(self):
        for k in (2, 3, 4, 5, 6):
            for n in range(1, 5):
                for depths in itertools.combinations_with_replacement(range(7), n):
                    assert oracle_enumerate_trees(k, depths) == oracle_recursive(k, depths)


class TestKraft:
    @pytest.mark.parametrize(
        "depths,expected",
        [
            ([2, 2, 2, 2], True),
            ([1, 1, 2], False),
            ([1, 2, 3, 3], True),
            ([0], True),
            ([0, 0], False),
            ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12], True),
        ],
    )
    def test_verdicts(self, depths, expected):
        assert kraft_check(depths) is expected

    def test_exact_at_depths_where_floats_round(self):
        # 2^-400 underflows to 0.0 in a float sum, which would wrongly
        # accept this over-full instance
        assert kraft_check([0, 400]) is False
        assert kraft_check([1, 400]) is True

    def test_huge_bound_is_fast(self):
        start = time.perf_counter()
        assert kraft_check([0, 10**8]) is False
        assert time.perf_counter() - start < 0.1

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            kraft_check([-1, 2])

    def test_matches_unit_edge_solver(self):
        for n in range(1, 6):
            for depths in itertools.combinations_with_replacement(range(6), n):
                assert kraft_check(depths) == decide(2, depths).realizable


class TestDispatch:
    def test_methods(self):
        assert run_oracle(6, [5, 7], OracleConfig(method="recursive")) is True
        assert run_oracle(6, [5, 7], OracleConfig(method="enumerate")) is True
        assert run_oracle(2, [1, 1], OracleConfig(method="kraft")) is True

    def test_kraft_requires_unit_edges(self):
        with pytest.raises(InputError):
            run_oracle(3, [1, 1], OracleConfig(method="kraft"))

    def test_unknown_method(self):
        with pytest.raises(InputError):
            run_oracle(2, [1, 1], OracleConfig(method="magic"))

    def test_max_n_override(self):
        config = OracleConfig(method="enumerate", max_n=2)
        with pytest.raises(LimitError):
            run_oracle(2, [1, 2, 2], config)

    def test_zero_max_n_is_a_limit(self):
        for method in ("recursive", "enumerate"):
            with pytest.raises(LimitError):
                run_oracle(2, [1, 1], OracleConfig(method=method, max_n=0))

    def test_negative_max_n_rejected(self):
        with pytest.raises(InputError):
            run_oracle(2, [1, 1], OracleConfig(method="recursive", max_n=-1))


class TestSweep:
    def test_checks_that_apply(self):
        cases = list(oracle.sweep([2, 3], 2, 1))
        # multisets of 1..2 values in 0..1: (0,) (1,) (0,0) (0,1) (1,1)
        assert [(k, d) for k, d, _ in cases][:5] == [
            (2, (0,)), (2, (1,)), (2, (0, 0)), (2, (0, 1)), (2, (1, 1))
        ]
        assert len(cases) == 10
        assert set(cases[0][2]) == {"solver", "solver_noprune", "recursive", "enumerate", "kraft"}
        assert "kraft" not in cases[5][2]
        assert all(len(set(verdicts.values())) == 1 for _, _, verdicts in cases)

    def test_assertion_is_yielded_and_sweep_goes_on(self, monkeypatch):
        real_decide = oracle.decide

        def decide(k, depths, config=None):
            if depths == (1,):
                raise AssertionError("forced")
            return real_decide(k, depths, config)

        monkeypatch.setattr(oracle, "decide", decide)
        cases = list(oracle.sweep([2], 1, 2))
        assert [d for _, d, _ in cases] == [(0,), (1,), (2,)]
        assert isinstance(cases[1][2], AssertionError)
        assert isinstance(cases[0][2], dict) and isinstance(cases[2][2], dict)
