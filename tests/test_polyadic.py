import collections
import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pglab.polyadic as polyadic
from reference import (
    blocked_associativity_witness, cube, full_grid_axioms, is_identity, reference_in_carrier,
    scalar_eval, z2_4,
)

from pglab.catalog import catalog_group, cyclic, direct_product
from pglab.config import DEFAULT_CAPS, Caps
from pglab.corpus import corpus_bases
from pglab.errors import (
    ArityMismatch,
    BNotFixed,
    CostCapExceeded,
    NotAssociative,
    NotCentral,
    NotSolvable,
    PolyadicError,
    PowerCondition,
    RoundTripMismatch,
    ValidationError,
)
from pglab.groups import Automorphism
from pglab.morphisms import is_polyadic_hom
from pglab.substructures import is_polyadic_subgroup
from pglab.polyadic import (
    all_derived,
    as_table,
    derive,
    derive_b,
    dornte_witness,
    from_table,
    hg_anchor0,
    hosszu_gloskin,
    is_reduced,
    n_ary_identity,
    retract,
    verify_axioms,
    verify_table_axioms,
    _solvability,
    _split_report,
)


def eval_reference(p, args):
    """Oracle: spell the twisted product out with explicit powers."""
    pres = p.presentation
    base, theta, b = pres.base, pres.theta, pres.b
    acc = args[0]
    for i, x in enumerate(args[1:], start=1):
        y = x
        for _ in range(i):
            y = theta(y)
        acc = base.mul(acc, y)
    return base.mul(acc, b)


def placement_mismatches(arity, order, flat, i):
    """Every (2n−1)-tuple, in lexicographic order, at which placements i−1
    and i of the inner f give different values."""
    m, n = order, arity

    def f(args):
        idx = 0
        for x in args:
            idx = idx * m + x
        return flat[idx]

    def placed(j, args):
        return f(args[:j] + (f(args[j : j + n]),) + args[j + n :])

    for args in itertools.product(range(m), repeat=2 * n - 1):
        if placed(i - 1, args) != placed(i, args):
            yield args


def reference_associativity(arity, order, flat):
    """Oracle: the first ("associativity", i, args) over i = 1..n−1 at which
    placements i−1 and i differ; None when the table is associative."""
    for i in range(1, arity):
        for args in placement_mismatches(arity, order, flat, i):
            return ("associativity", i, args)
    return None


def within_cap(p):
    return p.order ** (2 * p.arity - 1) <= DEFAULT_CAPS.axiom_cost_cap


def relabelled(p, sigma):
    """p's table carried through the carrier permutation sigma."""
    m, n = p.order, p.arity
    unsigma = np.argsort(sigma)
    return sigma[cube(as_table(p))[np.ix_(*([unsigma] * n))]].ravel()


def isotope(flat, m, n, j, sigma):
    """The table with sigma applied to argument j, or to the value when j = n:
    every line stays a permutation, so the table stays solvable."""
    cube = np.asarray(flat).reshape((m,) * n)
    return (sigma[cube] if j == n else np.take(cube, sigma, axis=j)).ravel()


def perturbed(data, flat, m, n, change):
    """flat with an isotopy drawn on a random argument or the value, or with
    one or two cells drawn anew; "none" leaves it as it is."""
    if change == "isotope":
        j = data.draw(st.integers(0, n))
        return isotope(flat, m, n, j, np.asarray(data.draw(st.permutations(range(m)))))
    flat = np.array(flat)
    if change == "cells":
        for _ in range(data.draw(st.integers(1, 2))):
            flat[data.draw(st.integers(0, len(flat) - 1))] = data.draw(st.integers(0, m - 1))
    return flat


def check_equals_full_grid(arity, order, flat):
    report, expected = verify_table_axioms(arity, order, flat), full_grid_axioms(arity, order, flat)
    assert report == expected and report.violations == expected.violations


def check_against_reference(arity, order, flat):
    report = verify_table_axioms(arity, order, flat)
    expected = reference_associativity(arity, order, flat)
    assert report.associative == (expected is None)
    found = [v for v in report.violations if v[0] == "associativity"]
    assert found == ([] if expected is None else [expected])


class TestDerive:
    def test_doubling_on_z5_arity_five(self):
        theta = Automorphism(tuple(2 * x % 5 for x in range(5)))
        p = derive(catalog_group("Z5"), theta, 0, 5)
        assert p.order == 5 and p.arity == 5

    def test_doubling_on_z5_arity_three_fails(self):
        theta = Automorphism(tuple(2 * x % 5 for x in range(5)))
        with pytest.raises(PowerCondition):
            derive(catalog_group("Z5"), theta, 0, 3)

    def test_b_not_fixed(self):
        theta = Automorphism(tuple((-x) % 9 for x in range(9)))
        with pytest.raises(BNotFixed):
            derive(catalog_group("Z9"), theta, 1, 3)

    def test_gate_messages_name_the_first_bad_element(self):
        doubling = Automorphism(tuple(2 * x % 5 for x in range(5)))
        with pytest.raises(PowerCondition, match=r"^theta\^2\(1\) = 4 but 0·1·0⁻¹ = 1$"):
            derive(catalog_group("Z5"), doubling, 0, 3)
        negation = Automorphism(tuple((-x) % 9 for x in range(9)))
        with pytest.raises(BNotFixed, match=r"^theta\(1\) = 8 differs from 1$"):
            derive(catalog_group("Z9"), negation, 1, 3)

    def test_nonabelian_twist(self):
        s3 = catalog_group("S3")
        three_cycle = next(a for a in range(6) if s3.element_orders[a] == 3)
        theta = Automorphism(tuple(s3.conj(three_cycle, x) for x in range(6)))
        b = s3.mul(three_cycle, three_cycle)
        p = derive(s3, theta, b, 3)
        assert dornte_witness(p) is None


class TestDeriveB:
    def test_shifted_sum_on_z2(self, structs):
        assert structs["T2b"].eval([0, 0, 0]) == 1
        assert structs["T2b"].eval([1, 1, 1]) == 0

    def test_plain_sum_on_z2(self, structs):
        assert structs["T2"].eval([1, 1, 0]) == 0

    def test_transposition_not_central(self):
        with pytest.raises(NotCentral):
            derive_b(catalog_group("S3"), 1, 3)


class TestEval:
    def test_sum_mod_three(self, structs):
        assert structs["T3"].eval([1, 1, 1]) == 0

    def test_alternating_sum(self, structs):
        assert structs["T4inv"].eval([1, 2, 3]) == (1 - 2 + 3) % 4

    def test_arity_mismatch(self, structs):
        with pytest.raises(ArityMismatch):
            structs["T3"].eval([1, 1])

    @pytest.mark.parametrize(
        "args", [[0, 0, -1], [0, 0, 5], [3, 0, 0], [0, 1.5, 0], [True, 0, 0], [0, np.True_, 0]]
    )
    def test_arguments_outside_the_carrier_are_refused(self, structs, args):
        # at the parent -1 wrapped round to 2 and 5 raised a bare IndexError
        for p in (structs["T3"], as_table(structs["T3"])):
            with pytest.raises(ValidationError):
                p.eval(args)

    @pytest.mark.parametrize("x", [-1, 5, 3, 1.0, True])
    def test_skew_oracle_refuses_outside_the_carrier(self, structs, x):
        # an unchecked scan reads -1 as a corrupted structure (NoSolution), 5 as an IndexError
        for p in (structs["T3"], as_table(structs["T3"])):
            with pytest.raises(ValidationError, match="elements of the carrier 0..2"):
                p.skew_oracle(x)

    @given(st.data())
    def test_matches_reference(self, structs, data):
        p = data.draw(st.sampled_from(sorted(structs)).map(structs.get))
        args = data.draw(
            st.lists(
                st.integers(0, p.order - 1), min_size=p.arity, max_size=p.arity
            )
        )
        assert p.eval(args) == eval_reference(p, args)

    def test_flat_table_matches_eval(self, structs):
        import itertools

        p = structs["T4inv"]
        for args in itertools.product(range(4), repeat=3):
            idx = (args[0] * 4 + args[1]) * 4 + args[2]
            assert p.flat_np[idx] == p.eval(list(args))

    @pytest.mark.parametrize("arity", [3, 4, 5])
    def test_flat_table_is_eval_in_one_byte_cells(self, arity):
        # a seeded twist of every corpus base, and of Z16 and Z2^4 at arity 3
        rng = random.Random(arity)
        bases = corpus_bases()
        if arity == 3:
            z2_4 = direct_product(direct_product(catalog_group("Z2xZ2"), cyclic(2)), cyclic(2))
            bases += [cyclic(16), z2_4]
        for base in bases:
            p = rng.choice(all_derived(base, arity))
            m = p.order
            assert p.flat_np.dtype == np.uint8 and p.flat_np.nbytes == m**arity
            every = itertools.product(range(m), repeat=arity)
            assert p.flat_np.tolist() == [p.eval(list(args)) for args in every]


def _outcome(check, p, args):
    """check(p, args) as ("ok", its answer as a tuple) or as the type and
    message of what it raised."""
    try:
        return "ok", tuple(np.asarray(check(p, args)).tolist())
    except Exception as exc:
        return type(exc), str(exc)


_ELEMENT = st.one_of(
    st.integers(-3, 20),
    st.integers(2**62, 2**80) | st.integers(-(2**80), -(2**62)),
    st.booleans(),
    st.integers(-2, 20).map(float),
    st.integers(-2, 20).map(np.int64),
    st.integers(0, 20).map(np.uint8),
    st.floats(-2, 20).map(np.float64),
    st.booleans().map(np.bool_),
    st.text(max_size=2),
    st.none(),
)

_CARRIER_INPUT = st.one_of(
    st.lists(st.integers(-1, 6), max_size=6),
    st.lists(st.integers(0, 4), min_size=1, max_size=6),
    st.lists(_ELEMENT, max_size=6),
    st.lists(_ELEMENT, max_size=6).map(tuple),
    st.lists(st.integers(-2, 8), max_size=6).map(np.array),
    st.lists(st.integers(0, 8), min_size=1, max_size=6).map(lambda v: np.array(v, dtype=np.uint8)),
    st.text(max_size=3),
    st.none(),
    st.lists(st.lists(st.integers(-1, 6), min_size=2, max_size=2), min_size=1, max_size=3),
    st.lists(st.lists(_ELEMENT, max_size=2), min_size=1, max_size=3),
)


class TestInCarrier:
    """_in_carrier accepts and refuses what the numpy check it replaced on
    flat lists of ints did, with the same message, and answers a tuple of
    Python ints.  A nested or ragged input is refused: its numpy form is not
    1-D."""

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_equals_the_numpy_check(self, structs, data):
        p = data.draw(st.sampled_from([structs["T1"], structs["T3"], structs["T5"]]))
        args = data.draw(_CARRIER_INPUT)
        got = _outcome(polyadic.PolyadicGroup._in_carrier, p, args)
        assert got == _outcome(reference_in_carrier, p, args)
        if got[0] == "ok":
            answer = p._in_carrier(args)
            assert type(answer) is tuple and all(type(v) is int for v in answer)

    @pytest.mark.parametrize("call", [
        lambda t: is_polyadic_hom([[0], [1], [2]], t, t),
        lambda t: is_polyadic_subgroup(t, [[0]]),
        lambda t: t.eval([[0], [1], [2]]),
        lambda t: t.skew_oracle([1]),
        lambda t: t.eval([[0, 1], [1], 2]),
    ], ids=["hom-map", "subgroup", "eval", "skew-oracle", "ragged"])
    def test_nested_input_is_refused(self, structs, call):
        # nested lists passed as a hom and a subgroup, and eval and
        # skew_oracle raised a bare TypeError
        for p in (structs["T3"], as_table(structs["T3"])):
            with pytest.raises(ValidationError, match="must be elements of the carrier 0..2"):
                call(p)


class TestEvalMany:
    """eval_many, one gather of power_tables an argument on derived input,
    equals the scalar reference."""

    @staticmethod
    def assert_equals_scalar_eval(p, args):
        assert p.eval_many(args).tolist() == [scalar_eval(p, col) for col in args.T.tolist()]

    def test_every_corpus_structure(self, corpus):
        rng = np.random.default_rng(0)
        for p in corpus:
            args = rng.integers(0, p.order, (p.arity, 40))
            self.assert_equals_scalar_eval(p, args)
            if p.order <= 4:
                self.assert_equals_scalar_eval(as_table(p), args)

    def test_arity_two_reads_theta_and_b_from_one_table(self):
        twists = [p for p in all_derived(catalog_group("D4"), 2) if p.presentation.b != 0]
        assert any(not is_identity(p.presentation.theta) for p in twists)
        every = np.indices((8, 8)).reshape(2, -1)
        for p in twists:
            assert len(p.power_tables) == 1
            self.assert_equals_scalar_eval(p, every)

    @pytest.mark.parametrize(
        "p",
        [derive_b(cyclic(8), 4, 8), z2_4((2, 4, 8, 15), 6)],
        ids=["Z8-b4-8", "Z2^4-theta5-6"],
    )
    def test_past_the_table_cap(self, p):
        # θ₅ (the companion map of x⁴+x³+x²+x+1) has order 5, so θ₅^5 = id
        assert p.order**p.arity > DEFAULT_CAPS.axiom_cost_cap
        args = np.random.default_rng(p.arity).integers(0, p.order, (p.arity, 2000))
        self.assert_equals_scalar_eval(p, args)
        assert "flat_np" not in p.__dict__

    @pytest.mark.parametrize("dtype", [np.intp, np.int64, np.uint8, np.int8])
    def test_argument_dtypes(self, small_corpus, dtype):
        # the (n, X) arrays eval_many's readers pass, and diagonal's read-only view
        rng = np.random.default_rng(1)
        for p in small_corpus[::7]:
            args = rng.integers(0, p.order, (p.arity, 30)).astype(dtype)
            self.assert_equals_scalar_eval(p, args)
            diagonal = np.broadcast_to(np.arange(p.order, dtype=dtype), (p.arity, p.order))
            assert not diagonal.flags.writeable
            self.assert_equals_scalar_eval(p, diagonal)
            assert p.diagonal.tolist() == [scalar_eval(p, [x] * p.arity) for x in range(p.order)]


class TestHash:
    def test_equal_structures_built_apart_hash_alike(self):
        p, q = (derive_b(cyclic(8), 3, 5, name=name) for name in ("p", ""))
        t, u = as_table(p), as_table(q)
        assert p is not q and p == q and t is not u and t == u
        assert hash(p) == hash(q) == hash(p) == hash((p.arity, p.presentation))
        assert hash(t) == hash(u) == hash(t) == hash((t.arity, t.presentation))
        assert len({p, q, t, u}) == 2


class TestAsTable:
    def test_cells_charged_before_the_table_is_built(self):
        # der(Z8, id, 0, 5) has 8^5 = 32,768 cells
        p = derive(cyclic(8), Automorphism.identity(8), 0, 5)
        with pytest.raises(CostCapExceeded, match="32768 cells") as err:
            as_table(p, Caps(axiom_cost_cap=8**5 - 1))
        assert err.value.cap == "axiom_cost_cap" and "flat_np" not in p.__dict__
        assert as_table(p, Caps(axiom_cost_cap=8**5)).flat_np.tolist() == p.flat_np.tolist()

    def test_a_table_is_returned_as_it_is(self, structs):
        table = as_table(structs["T3"])
        assert as_table(table, Caps(axiom_cost_cap=0)) is table

    def test_builds_under_three_bytes_a_cell(self):
        # der(Z7, id, 0, 8): 7^8 = 5,764,801 one-byte cells, each prefix carried
        # through the power tables, so the widest index array holds 7^7
        p = derive(cyclic(7), Automorphism.identity(7), 0, 8)
        tracemalloc.start()
        try:
            table = as_table(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 7**8, peak / 7**8
        args = np.random.default_rng(8).integers(0, 7, (8, 2000))
        assert table.eval_many(args).tolist() == p.eval_many(args).tolist()


class TestVerifyAxioms:
    def test_valid_table(self, structs):
        report = verify_axioms(as_table(structs["T3"]))
        assert report.associative and report.solvable
        assert report.violations == ()

    def test_projection_is_associative_but_not_solvable(self):
        # f(x, y, z) = x
        flat = [0, 0, 0, 0, 1, 1, 1, 1]
        report = verify_table_axioms(3, 2, flat)
        assert report.associative
        assert not report.solvable
        assert any(v[0] == "solvability" for v in report.violations)

    def test_shifted_sum_table(self, structs):
        report = verify_axioms(as_table(structs["T2b"]))
        assert report.associative and report.solvable

    def test_cost_cap_refusal(self, structs):
        # the oracle's 2^5 evaluations exceed a cap of 8, the table's 2^3
        # cells do not: verify_axioms answers by the split alone, and
        # refuses once the cells exceed the cap too
        table, small = as_table(structs["T2b"]), Caps(axiom_cost_cap=8)
        with pytest.raises(CostCapExceeded):
            verify_table_axioms(3, 2, table.flat_np, caps=small)
        assert verify_axioms(table, caps=small).ok
        with pytest.raises(CostCapExceeded):
            verify_axioms(table, caps=Caps(axiom_cost_cap=7))

    def test_from_table_rejects_unsolvable(self):
        with pytest.raises(NotSolvable):
            from_table(3, 2, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_wrong_length_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            verify_table_axioms(3, 2, [0] * 7)

    def test_out_of_range_entry_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            verify_table_axioms(3, 2, [0] * 7 + [2])
        with pytest.raises(ValidationError):
            verify_table_axioms(3, 2, [-1] + [0] * 7)

    def test_order_zero_is_refused(self):
        with pytest.raises(ValidationError):
            verify_table_axioms(3, 0, [])
        with pytest.raises(ValidationError):
            from_table(3, 0, [])

    @pytest.mark.parametrize(
        "flat", [[0, 1, 1, 5, 1, 0, 0, 1], [0, 1, 1, 300, 1, 0, 0, 1], [0, 1, 1, 255, 1, 0, 0, 1],
                 [-1, 1, 1, 0, 1, 0, 0, 1], [0, 1, 1, 0, 1, 0, 0]],
    )
    def test_unverified_table_is_still_length_and_range_checked(self, flat):
        with pytest.raises(ValidationError):
            from_table(3, 2, flat, verify=False)

    @pytest.mark.parametrize("arity, order", [(3, True), (True, 1), (3, 1.0), (3.0, 1)])
    def test_non_integer_arity_or_order_is_refused(self, arity, order):
        with pytest.raises(ValidationError):
            from_table(arity, order, [0])

    def test_derived_input_is_a_validation_error(self, structs):
        with pytest.raises(ValidationError):
            verify_axioms(structs["T3"])

    @given(st.data())
    def test_random_tables_equal_reference(self, data):
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(2, 4))
        flat = data.draw(st.lists(st.integers(0, m - 1), min_size=m**n, max_size=m**n))
        check_against_reference(n, m, flat)

    @given(st.data())
    def test_corrupted_corpus_tables_equal_reference(self, small_corpus, data):
        p = data.draw(
            st.sampled_from([q for q in small_corpus if q.order ** (2 * q.arity - 1) <= 5**5])
        )
        flat = list(as_table(p).presentation.flat)
        for _ in range(data.draw(st.integers(1, 2))):
            cell = data.draw(st.integers(0, len(flat) - 1))
            flat[cell] = data.draw(st.integers(0, p.order - 1))
        check_against_reference(p.arity, p.order, flat)

    @pytest.mark.parametrize(
        "flat, agree, placement",
        [((1, 0) * 8, [True, True, False], 3), ((0, 0, 0, 1) * 4, [True, False, False], 2)],
    )
    def test_every_placement_pair_is_compared(self, flat, agree, placement):
        # (1,0)*8 fails only between placements 2 and 3, (0,0,0,1)*4 first
        # between 1 and 2: a check of placements 0 and 1 alone passes both
        assert [next(placement_mismatches(4, 2, flat, i), None) is None for i in (1, 2, 3)] == agree
        report = verify_table_axioms(4, 2, flat)
        assert not report.associative
        assert report.violations[0][:2] == ("associativity", placement)
        check_against_reference(4, 2, flat)

    def test_largest_table_under_the_cost_cap(self):
        # 10^(2·4−1) = 10^7 evaluations, exactly the default axiom_cost_cap
        p = as_table(all_derived(cyclic(10), 4)[5])
        assert p.order ** (2 * p.arity - 1) == Caps().axiom_cost_cap
        assert verify_axioms(p).ok


def keyed_witness(flat, m, n):
    """The exhaustive check's one associativity route on a raw table: its
    key classes (polyadic._key_classes), then its witness."""
    small = polyadic._table_array(n, m, flat)
    return polyadic._associativity_witness(small, m, n, polyadic._key_classes(small, m, n))


DEFAULT_BLOCK_CELLS = polyadic._BLOCK_CELLS


def block_sizes(m, n):
    """_BLOCK_CELLS values that the route must answer alike at: one
    (π, a) a block with the keys sorted into classes, the default, and the
    whole grid (one block, every tuple its own class) where that is small
    enough to build."""
    grid = m ** (2 * n - 1)
    return [1, DEFAULT_BLOCK_CELLS] + ([grid] if grid <= 1 << 22 else [])


def check_every_block_size(flat, m, n, expected):
    for cells in block_sizes(m, n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyadic, "_BLOCK_CELLS", cells)
            assert keyed_witness(flat, m, n) == expected, cells


class TestBlockedOracle:
    def test_corpus_tables_relabellings_and_corruptions_equal_full_grid(self, corpus):
        rng = random.Random(24)
        tables = 0
        for p in filter(within_cap, corpus):
            m, n = p.order, p.arity
            flat = as_table(p).flat_np
            corrupt = flat.copy()
            for _ in range(rng.randint(1, 2)):
                corrupt[rng.randrange(len(corrupt))] = rng.randrange(m)
            for table in (flat, relabelled(p, np.asarray(rng.sample(range(m), m))), corrupt):
                check_equals_full_grid(n, m, table)
                tables += 1
        assert tables == 3 * 476

    @given(st.data())
    def test_every_block_size_equals_full_grid(self, data):
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(2, 4))
        flat = data.draw(st.lists(st.integers(0, m - 1), min_size=m**n, max_size=m**n))
        for cells in block_sizes(m, n):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(polyadic, "_BLOCK_CELLS", cells)
                check_equals_full_grid(n, m, flat)

    @pytest.mark.parametrize(
        "flat, violation",
        [
            # every failing tuple has x₀ = 1
            ((0, 0, 0, 0, 0, 0, 1, 0), ("associativity", 1, (1, 1, 0, 1, 0))),
            # placement pair 2 fails at x₀ = 0, pair 1 only at x₀ = 1
            ((0, 1, 0, 0, 0, 1, 0, 1), ("associativity", 1, (1, 0, 0, 1, 1))),
        ],
    )
    def test_witness_is_the_first_failing_placement_over_every_block(self, flat, violation):
        assert full_grid_axioms(3, 2, flat).violations[0] == violation
        for cells in block_sizes(2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(polyadic, "_BLOCK_CELLS", cells)
                assert verify_table_axioms(3, 2, flat).violations[0] == violation
                check_equals_full_grid(3, 2, flat)

    @pytest.mark.parametrize(
        "flat", [[0.9, 1, 1, 0, 1, 0, 0, 1], ["0", 1, 1, 0, 1, 0, 0, 1],
                 [True, 1, 1, 0, 1, 0, 0, 1], [False, True, True, False] * 2,
                 np.asarray([0, 1, 1, 0, 1, 0, 0, 1], dtype=float)],
    )
    def test_non_integer_cells_are_refused(self, flat):
        with pytest.raises(ValidationError, match="integers"):
            verify_table_axioms(3, 2, flat)
        for verify in (True, False):
            with pytest.raises(ValidationError, match="integers"):
                from_table(3, 2, flat, verify=verify)


def theorem_ok(p):
    """The theorem route's decision: solvable, then split at anchor 0."""
    return _solvability(p, DEFAULT_CAPS)[0] and _split_report(p).ok


def _multi_block_bases():
    doubling = Automorphism(tuple(2 * x % 5 for x in range(5)))
    return [derive(catalog_group("Z5"), doubling, 0, 5),
            derive(catalog_group("Z2xZ2xZ2"), Automorphism.identity(8), 0, 4)]


def keyed_cells(flat, m, n):
    """The cells the route's largest level compares, counted from the table
    alone: max_i B_i·K·m^(n−i), B_i the distinct level-i blocks T[π, ·, …]
    over every π and K = m times the distinct pairs (w's column T[·, w],
    w's row T[w, ·])."""
    small = np.asarray(flat).reshape(-1, m)
    columns = np.asarray(flat).reshape(m, -1).T
    k = m * len({(c.tobytes(), r.tobytes()) for c, r in zip(columns, small)})
    return max(len({b.tobytes() for b in np.asarray(flat).reshape(m ** (i - 1), -1)}) * k * m ** (n - i)
               for i in range(1, n))


class TestMemoisedScan:
    """_associativity_witness compares one tuple per (block, key) class
    (the keys' w classes from _key_classes), every tuple its own class on a
    grid of one block; its report and witness are the blocked scan's
    (reference.blocked_associativity_witness) and the full grid's at every
    _BLOCK_CELLS."""

    @pytest.mark.parametrize("p", _multi_block_bases(), ids=["z5-doubling-5", "z2^3-4"])
    def test_one_corrupted_copy_of_a_repeated_block_equals_full_grid(self, p):
        m, n = p.order, p.arity
        rng = random.Random(39)
        for i in range(2, n):
            for draw in range(3):
                flat = relabelled(p, np.asarray(rng.sample(range(m), m))).copy()
                blocks = flat.reshape(m**i, -1)
                prefix = rng.randrange(m**i)
                assert sum(np.array_equal(b, blocks[prefix]) for b in blocks) > 1
                cell = blocks.shape[1] - 1 if draw == 0 else rng.randrange(blocks.shape[1])
                blocks[prefix, cell] = (blocks[prefix, cell] + rng.randrange(1, m)) % m
                expected = full_grid_axioms(n, m, flat)
                assert not expected.associative
                small = polyadic._table_array(n, m, flat)
                check_every_block_size(small, m, n, blocked_associativity_witness(small, m, n))
                for cells in block_sizes(m, n):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(polyadic, "_BLOCK_CELLS", cells)
                        report = verify_table_axioms(n, m, flat)
                    assert report == expected and report.violations == expected.violations

    @pytest.mark.parametrize("p", _multi_block_bases(), ids=["z5-doubling-5", "z2^3-4"])
    @pytest.mark.parametrize("cells", [None, 1, "grid-1"])
    def test_keys_decide_a_multi_block_grid_without_the_scan(self, monkeypatch, p, cells):
        """A relabelled derived table has at most m blocks a level and m²
        keys, so each level compares at most m^(n+1) cells, not the
        grid's: the witness reads m or fewer π's a level."""
        m, n = p.order, p.arity
        if cells is not None:
            monkeypatch.setattr(polyadic, "_BLOCK_CELLS", 1 if cells == 1 else m ** (2 * n - 1) - 1)
        flat = relabelled(p, np.arange(m)[::-1].copy())
        assert len(polyadic._key_classes(flat, m, n)) == m
        assert keyed_cells(flat, m, n) == m ** (n + 1)
        read, blocks = [], polyadic.row_blocks
        monkeypatch.setattr(polyadic, "row_blocks",
                            lambda rows, cells: read.append(rows) or blocks(rows, cells))
        assert verify_table_axioms(n, m, flat).ok
        pis = [rows for rows in read if rows.ndim == 1]
        assert len(pis) >= n - 1 and all(len(rows) <= m for rows in pis)
        assert keyed_witness(flat, m, n) is None is blocked_associativity_witness(flat, m, n)

    @pytest.mark.parametrize("flat, m, n", [
        (as_table(_multi_block_bases()[0]).flat_np, 5, 5),
        (as_table(_multi_block_bases()[1]).flat_np, 8, 4),
        (np.zeros(8, dtype=np.uint8), 2, 3),
    ], ids=["z5-doubling-5", "z2^3-4", "zero-2-3"])
    def test_a_one_block_grid_reads_no_keys(self, monkeypatch, flat, m, n):
        """On a grid of one block every tuple is its own class: no row is
        sorted (_firsts), and the witness is the blocked scan's."""
        monkeypatch.setattr(polyadic, "_firsts", None)
        monkeypatch.setattr(polyadic, "_BLOCK_CELLS", max(DEFAULT_BLOCK_CELLS, m ** (2 * n - 1)))
        assert polyadic._key_classes(flat, m, n).tolist() == list(range(m ** (n - 1)))
        assert verify_table_axioms(n, m, flat).associative
        assert keyed_witness(flat, m, n) is None is blocked_associativity_witness(flat, m, n)

    @pytest.mark.parametrize("name", ["Z5", "S3"])
    def test_binary_groups_equal_blocked_scan(self, monkeypatch, name):
        """A binary group's keys are its whole grid, m² pairs (a, w) of m
        cells, at every block size that classes them; one corrupted cell
        gives the blocked scan's witness at each."""
        g = catalog_group(name)
        m = g.order
        small = as_table(derive(g, Automorphism.identity(m), 0, 2)).flat_np
        corrupt = small.copy()
        corrupt[m + 1] = (corrupt[m + 1] + 1) % m
        for cells in (1, m**2, m**3 - 1, DEFAULT_BLOCK_CELLS):
            monkeypatch.setattr(polyadic, "_BLOCK_CELLS", cells)
            if cells < m**3:
                assert len(polyadic._key_classes(small, m, 2)) == m
            assert keyed_witness(small, m, 2) is None is blocked_associativity_witness(small, m, 2)
            assert keyed_witness(corrupt, m, 2) == blocked_associativity_witness(corrupt, m, 2)

    def test_every_order_two_quaternary_table_equals_blocked_scan(self, monkeypatch):
        """All 65,536 (2, 4) tables, at the default block size (one block,
        every tuple its own class) and at 2^6 cells, where every table is
        read by its keys."""
        levels = collections.Counter()
        for small in np.asarray(list(itertools.product(range(2), repeat=16)), dtype=np.uint8):
            witness = blocked_associativity_witness(small, 2, 4)
            for cells in (DEFAULT_BLOCK_CELLS, 2**6):
                monkeypatch.setattr(polyadic, "_BLOCK_CELLS", cells)
                assert keyed_witness(small, 2, 4) == witness
            levels[witness and witness[1]] += 1
        assert levels == {None: 8, 1: 65515, 2: 12, 3: 1}

    def test_every_order_three_binary_table_equals_blocked_scan(self, monkeypatch):
        """All 19,683 (3, 2) tables, one block (27 cells) or one pair a
        block."""
        for small in np.asarray(list(itertools.product(range(3), repeat=9)), dtype=np.uint8):
            witness = blocked_associativity_witness(small, 3, 2)
            for cells in (DEFAULT_BLOCK_CELLS, 1):
                monkeypatch.setattr(polyadic, "_BLOCK_CELLS", cells)
                assert keyed_witness(small, 3, 2) == witness

    def test_corpus_tables_relabellings_and_corruptions_equal_blocked_scan(self, corpus):
        rng = random.Random(39)
        tables = 0
        for p in filter(within_cap, corpus):
            m, n = p.order, p.arity
            flat = relabelled(p, np.asarray(rng.sample(range(m), m)))
            once, twice = flat.copy(), flat.copy()
            once[rng.randrange(len(flat))] = rng.randrange(m)
            for _ in range(2):
                twice[rng.randrange(len(flat))] = rng.randrange(m)
            for table in (as_table(p).flat_np, flat, once, twice):
                small = polyadic._table_array(n, m, table)
                assert keyed_witness(small, m, n) == blocked_associativity_witness(small, m, n)
                tables += 1
        assert tables == 4 * 476

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_corrupted_arity_five_corpus_tables_equal_blocked_scan(self, corpus, m):
        """Seeded one-cell corruptions of (m, 5) corpus table forms, whose
        m^9 grids the gate refused before their cells were charged by key,
        against the uncapped blocked scan."""
        rng = random.Random(42 + m)
        forms = [p for p in corpus if (p.order, p.arity) == (m, 5)]
        for p in rng.sample(forms, 2):
            small = as_table(p).flat_np.copy()
            cell = rng.randrange(len(small))
            small[cell] = (small[cell] + rng.randrange(1, m)) % m
            witness = blocked_associativity_witness(small, m, 5)
            assert witness is not None
            check_every_block_size(small, m, 5, witness)

    @pytest.mark.parametrize("m, n", [(5, 5), (8, 4)])
    def test_blocks_alike_in_their_first_row_are_told_apart(self, m, n):
        """f = min is associative, not solvable, and every level-i block
        has the same first row, all zeros: only their other cells tell the
        m distinct blocks apart."""
        flat = np.min(np.indices((m,) * n), axis=0).ravel()
        report, expected = verify_table_axioms(n, m, flat), full_grid_axioms(n, m, flat)
        assert report == expected and report.associative and not report.solvable

    @pytest.mark.parametrize("cells", [None, 1])
    def test_every_order_two_ternary_table_equals_blocked_scan(self, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(polyadic, "_BLOCK_CELLS", cells)
        for flat in itertools.product(range(2), repeat=8):
            small = polyadic._table_array(3, 2, flat)
            assert keyed_witness(small, 2, 3) == blocked_associativity_witness(small, 2, 3)

    @pytest.mark.parametrize("n", [3, 4])
    def test_semigroup_tables_changed_in_one_block_equal_blocked_scan(self, monkeypatch, n):
        """x₁·x₂···x_n over each of the 113 semigroups on 3 points, with one
        to three cells of one level block changed, read by their keys (one
        pair a block) and as one block.  Such a table may fail at one
        placement pair alone, and only behind a block or a row that is not
        the first of its key's kind."""
        m, rng = 3, random.Random(40)
        binary = np.asarray(list(itertools.product(range(m), repeat=m * m))).reshape(-1, m, m)
        k, (x, y, z) = np.arange(len(binary))[:, None, None, None], np.indices((m,) * 3)
        associative = (binary[k, binary[k, x, y], z] == binary[k, x, binary[k, y, z]]).all(axis=(1, 2, 3))
        semigroups = binary[associative]
        assert len(semigroups) == 113
        args, levels = np.indices((m,) * n).reshape(n, -1), collections.Counter()
        for _ in range(3000):
            s = semigroups[rng.randrange(len(semigroups))]
            flat = args[0]
            for col in args[1:]:
                flat = s[flat, col]
            flat = flat.astype(np.uint8)
            level = rng.randrange(1, n)
            block = flat.reshape(m**level, -1)[rng.randrange(m**level)]
            for _ in range(rng.randint(1, 3)):
                block[rng.randrange(len(block))] = rng.randrange(m)
            witness = blocked_associativity_witness(flat, m, n)
            for cells in (1, DEFAULT_BLOCK_CELLS):
                monkeypatch.setattr(polyadic, "_BLOCK_CELLS", cells)
                assert keyed_witness(flat, m, n) == witness
            levels[witness and witness[1]] += 1
        assert all(levels[i] for i in range(1, n))

    @pytest.mark.parametrize("m, n", [(5, 5), (8, 4)])
    def test_random_tables_equal_blocked_scan(self, m, n):
        rng = np.random.default_rng(39)
        for _ in range(5):
            small = rng.integers(0, m, m**n).astype(np.uint8)
            check_every_block_size(small, m, n, blocked_associativity_witness(small, m, n))


class TestAxiomRoutes:
    @given(st.data())
    def test_theorem_and_oracle_agree(self, small_corpus, data):
        p = data.draw(st.sampled_from([q for q in small_corpus if within_cap(q)]))
        m, n = p.order, p.arity
        flat = relabelled(p, np.asarray(data.draw(st.permutations(range(m)))))
        flat = perturbed(data, flat, m, n, data.draw(st.sampled_from(["none", "isotope", "cells"])))
        oracle = verify_table_axioms(n, m, flat)
        assert theorem_ok(from_table(n, m, flat, verify=False)) == oracle.ok
        # both routes run under verify_axioms, which raises if they disagree
        assert verify_axioms(from_table(n, m, flat, verify=False)) == oracle

    def test_only_the_round_trip_refuses_an_isotope(self):
        # x1 + x2 − x3 + x4 on Z3: solvable, its retract at 0 is Z3, its
        # twist the identity and its constant 0, yet it is not der(Z3, id, 0)
        flat = isotope(as_table(derive(cyclic(3), Automorphism.identity(3), 0, 4)).flat_np,
                       3, 4, 2, np.asarray([0, 2, 1]))
        p = from_table(4, 3, flat, verify=False)
        group, _ = retract(p, 0)
        assert group.table == cyclic(3).table and p.skew(0) == 0
        report = _split_report(p)
        assert not report.associative and "rebuilt operation differs" in report.violations[0][2]
        oracle = verify_table_axioms(4, 3, flat)
        assert not oracle.associative
        checked = verify_axioms(p)
        assert not checked.ok
        # both routes ran: the oracle's witness first, then the split's
        assert checked.violations == oracle.violations + report.violations
        assert [v[0] for v in checked.violations] == ["associativity", "split"]
        with pytest.raises(NotAssociative):
            from_table(4, 3, flat)

    def test_a_verified_table_keeps_its_split(self, monkeypatch, structs):
        splits = []
        real = polyadic.hosszu_gloskin
        monkeypatch.setattr(polyadic, "hosszu_gloskin", lambda p, a: splits.append(a) or real(p, a))
        p = from_table(5, 5, as_table(structs["T5"]).flat_np)
        assert splits == [0] and p.__dict__["view"] is p.view is hg_anchor0(p)
        assert p.view.base.order == 5
        assert verify_axioms(p).ok and splits == [0]

    @pytest.mark.parametrize("base", ["Z8", "Z2^4"])
    def test_tables_past_the_cap_are_verified_by_their_split(self, base):
        """Both grids pass the cap; der(Z8, id, 0, 5)'s keys (8² of them, 8
        blocks a level) are charged 8^6 cells and its oracle answers, while
        der(Z2⁴, id, 0, 5)'s first level alone compares 16²·16^4 cells."""
        v = catalog_group("Z2xZ2")
        group = cyclic(8) if base == "Z8" else direct_product(v, v)
        table = as_table(derive(group, Automorphism.identity(group.order), 0, 5))
        assert not within_cap(table)
        p = from_table(5, table.order, table.flat_np.tolist())
        assert p.view.base.order == group.order and verify_axioms(p).ok
        if base == "Z8":
            assert verify_table_axioms(5, 8, table.flat_np).ok
        else:
            with pytest.raises(CostCapExceeded) as err:
                verify_table_axioms(5, 16, table.flat_np)
            assert err.value.required == 16**6

    def test_unsolvable_table_past_the_cap_leaves_associativity_undecided(self):
        """A corrupted der(Z8, id, 0, 5) is decided by the oracle, with the
        blocked scan's witness; a corrupted der(Z2⁴, id, 0, 5), whose keys
        need about 18.9M cells, is still undecided."""
        flat = as_table(derive(cyclic(8), Automorphism.identity(8), 0, 5)).flat_np.copy()
        flat[1] = flat[0]
        report = verify_axioms(from_table(5, 8, flat, verify=False))
        assert report.associative is False and not report.solvable and not report.ok
        assert report.violations[0] == ("associativity", 1, (0, 0, 0, 0, 0, 1, 0, 0, 0))
        assert report.violations[0] == blocked_associativity_witness(flat, 8, 5)
        with pytest.raises(NotSolvable):
            from_table(5, 8, flat)
        v = catalog_group("Z2xZ2")
        flat = as_table(derive(direct_product(v, v), Automorphism.identity(16), 0, 5)).flat_np.copy()
        flat[1] = flat[0]
        assert keyed_cells(flat, 16, 5) > DEFAULT_CAPS.axiom_cost_cap
        report = verify_axioms(from_table(5, 16, flat, verify=False))
        assert report.associative is None and not report.solvable and not report.ok
        with pytest.raises(NotSolvable):
            from_table(5, 16, flat)

    def test_the_charge_is_the_largest_levels_keyed_cells(self):
        # a random table's blocks and keys are all distinct: every level
        # compares the whole grid, 6^9 cells, past the default cap
        small = np.random.default_rng(6).integers(0, 6, 6**5)
        required = keyed_cells(small, 6, 5)
        assert required == 6**9 > DEFAULT_CAPS.axiom_cost_cap
        with pytest.raises(CostCapExceeded) as err:
            verify_table_axioms(5, 6, small)
        assert (err.value.cap, err.value.required) == ("axiom_cost_cap", required)
        assert not verify_table_axioms(5, 6, small, Caps(axiom_cost_cap=required)).associative

    def test_a_solvable_table_past_the_floor_sorts_no_keys(self, monkeypatch):
        # der(Z2⁴, id, 0, 5): a solvable table has 16 w classes or more, so
        # its oracle needs 16^6 cells at least, past the default cap
        t = as_table(z2_4((1, 2, 4, 8), 5))
        sorted_keys = []
        monkeypatch.setattr(polyadic, "_key_classes", lambda *args: sorted_keys.append(args))
        report = verify_axioms(t)
        assert sorted_keys == []
        assert report == polyadic.AxiomReport(True, True, ()) and report.violations == ()

    def test_the_oracle_runs_on_every_corpus_table_form(self, monkeypatch, corpus):
        ran, witness = [], polyadic._associativity_witness
        monkeypatch.setattr(polyadic, "_associativity_witness",
                            lambda *args: ran.append(args[1:3]) or witness(*args))
        for p in corpus:
            assert verify_axioms(as_table(p)).ok
        assert len(ran) == len(corpus) == 770
        assert collections.Counter(ran)[(8, 5)] == 272

    @given(st.data())
    def test_tables_past_the_cap_fail_typed(self, corpus, data):
        p = data.draw(st.sampled_from([q for q in corpus if not within_cap(q)]))
        m, n = p.order, p.arity
        change = data.draw(st.sampled_from(["isotope", "cells"]))
        flat = perturbed(data, as_table(p).flat_np, m, n, change)
        try:
            from_table(n, m, flat)
        except PolyadicError as exc:
            assert isinstance(exc, (NotSolvable, NotAssociative)), repr(exc)


class TestSkew:
    def test_negation(self, structs):
        assert structs["T3"].skew(1) == 2

    def test_self_skew(self, structs):
        assert structs["T4inv"].skew(3) == 3

    def test_shifted(self, structs):
        assert structs["T2b"].skew(0) == 1

    def test_oracle_examples(self, structs):
        assert structs["T3"].skew_oracle(1) == 2
        assert structs["T5"].skew_oracle(1) == 1

    def test_idempotent_is_self_skew(self, structs):
        p = structs["T4inv"]
        for x in np.flatnonzero(p.diagonal == np.arange(p.order)):
            assert p.skew_oracle(x) == x

    @given(st.data())
    def test_closed_form_matches_oracle(self, small_corpus, data):
        p = data.draw(st.sampled_from(small_corpus))
        x = data.draw(st.integers(0, p.order - 1))
        assert p.skew(x) == p.skew_oracle(x)


class TestRetract:
    def test_reduced_case_identity_relabel(self, structs):
        group, relabel = retract(structs["T3"], 0)
        assert group.table == catalog_group("Z3").table
        assert relabel == (0, 1, 2)

    def test_shifted_case_swaps(self, structs):
        group, relabel = retract(structs["T2b"], 0)
        assert group.order == 2
        assert relabel == (1, 0)

    def test_alternating_case(self, structs):
        group, relabel = retract(structs["T4inv"], 0)
        assert group.table == catalog_group("Z4").table
        assert relabel == (0, 1, 2, 3)

    def test_skew_of_anchor_relabels_to_zero(self, small_corpus):
        for p in small_corpus[::7]:
            for a in range(p.order):
                _, relabel = retract(p, a)
                assert relabel[p.skew(a)] == 0

    def test_inverse_formula(self, small_corpus):
        # the retract inverse of x is f(skew(a), x...x, skew(x), skew(a))
        for p in small_corpus[::5]:
            if p.arity < 3:
                continue
            for a in range(p.order):
                group, relabel = retract(p, a)
                abar = p.skew(a)
                for x in range(p.order):
                    y = p.eval([abar] + [x] * (p.arity - 3) + [p.skew(x), abar])
                    assert relabel[y] == group.inv(relabel[x])


class TestHosszuGloskin:
    def test_reduced_recovers_itself(self, structs):
        hg = hosszu_gloskin(structs["T3"], 0)
        assert hg.base.table == catalog_group("Z3").table
        assert is_identity(hg.theta)
        assert hg.b == 0

    def test_shifted_sum(self, structs):
        hg = hosszu_gloskin(structs["T2b"], 0)
        assert hg.base.order == 2
        assert is_identity(hg.theta)
        assert hg.b == 1  # constant lands on the relabelled side

    def test_alternating(self, structs):
        hg = hosszu_gloskin(structs["T4inv"], 0)
        assert hg.theta.perm == (0, 3, 2, 1)
        assert hg.b == 0

    def test_view_keeps_no_table(self, structs):
        assert "flat_np" not in hg_anchor0(as_table(structs["T4inv"])).group.__dict__

    def test_view_beyond_the_cap_builds_no_table(self):
        # 8^8 cells, past the default axiom_cost_cap: the retract, twist and c
        # are read off the presentation, and the split is exact all the same
        p = derive(catalog_group("D4"), Automorphism((0, 1, 2, 3, 6, 7, 4, 5)), 1, 8)
        view = hg_anchor0(p)
        assert "flat_np" not in p.__dict__
        rng = random.Random(8)
        for _ in range(300):
            args = [rng.randrange(8) for _ in range(8)]
            image = view.group.eval([view.relabel[x] for x in args])
            assert view.relabel[p.eval(args)] == image

    def test_split_of_a_derived_group_builds_no_table(self, small_corpus):
        # fresh copies, so no other test's table is found on them; the table
        # form's split is compared on every cell
        for q in small_corpus[::4]:
            p = derive(q.presentation.base, q.presentation.theta, q.presentation.b, q.arity)
            view = hg_anchor0(p)
            assert "flat_np" not in p.__dict__
            exact = hosszu_gloskin(as_table(p), 0)
            assert (view.group, view.relabel) == (exact.group, exact.relabel)

    def test_mismatch_names_the_input_flat_index(self, small_corpus):
        # cell 4 is (0, 1, 0): neither the retract at 0 nor, when skew(0) != 0,
        # the twist or c reads it, so the rebuilt operation differs there first;
        # a table is compared on every cell it holds
        twists = [p for p in small_corpus if (p.order, p.arity) == (4, 3) and p.skew(0) != 0]
        assert len(twists) == 10
        for p in twists:
            flat = list(as_table(p).presentation.flat)
            flat[4] = (flat[4] + 1) % 4
            with pytest.raises(RoundTripMismatch, match=r"at flat index 4$"):
                hosszu_gloskin(from_table(3, 4, flat, verify=False), 0)

    def test_roundtrip_every_anchor(self, structs):
        for p in structs.values():
            for a in range(p.order):
                hg = hosszu_gloskin(p, a)
                relabel = hg.relabel
                assert all(
                    relabel[p.eval([x, y] + [0] * (p.arity - 2))]
                    == hg.group.eval([relabel[x], relabel[y]] + [relabel[0]] * (p.arity - 2))
                    for x in range(p.order)
                    for y in range(p.order)
                )


class TestAnchor0:
    """hg_anchor0's shortcuts: a derived group with b = 0 is its own split
    at 0, and the twists of one (G, b) share one retract group."""

    def test_equals_the_split_at_0(self, corpus):
        for q in corpus:
            p = dataclasses.replace(q)
            view, exact = hg_anchor0(p), hosszu_gloskin(p, 0)
            assert (view.group, view.relabel) == (exact.group, exact.relabel)

    def test_b_0_builds_no_split(self, corpus, monkeypatch):
        monkeypatch.setattr(polyadic, "hosszu_gloskin", lambda *a: pytest.fail("split built"))
        fixed = [dataclasses.replace(q) for q in corpus if q.presentation.b == 0]
        assert fixed
        for p in fixed:
            assert hg_anchor0(p) is p.view

    def test_twists_of_one_base_and_b_share_the_retract(self):
        z8 = catalog_group("Z8")
        p, q = (derive(z8, Automorphism(tuple(k * x % 8 for x in range(8))), 4, 3) for k in (1, 3))
        assert p != q
        assert hg_anchor0(p).base is hg_anchor0(q).base
        assert hg_anchor0(p).group != hg_anchor0(q).group

    def test_round_trip_still_runs_for_b_not_0(self):
        # der(Z8, id, 4, 8) with c = f(ū,…,ū) read wrong: the twist gates
        # still pass (θ = id, Z8 abelian), and only the round trip refuses
        p = derive_b(cyclic(8), 4, 8)
        abar, eval_many = p.skew(0), p.eval_many

        def corrupted(args):
            values = eval_many(args)
            return np.where((np.asarray(args) == abar).all(axis=0), (values + 1) % 8, values)

        p.__dict__["eval_many"] = corrupted
        with pytest.raises(RoundTripMismatch, match="rebuilt operation differs"):
            hg_anchor0(p)


class TestIdentityAndDornte:
    def test_identity_examples(self, structs):
        assert n_ary_identity(structs["T3"]) == 0
        assert n_ary_identity(structs["T2b"]) is None
        assert n_ary_identity(structs["T4inv"]) is None

    def test_reduced_iff_anchor_at_identity_is_plain(self, small_corpus):
        for p in small_corpus:
            e = n_ary_identity(p)
            assert is_reduced(p) == (e is not None)
            if e is not None:
                hg = hosszu_gloskin(p, e)
                assert is_identity(hg.theta) and hg.b == 0

    def test_dornte_examples(self, structs):
        assert dornte_witness(structs["T3"]) is None
        assert dornte_witness(structs["T5"]) is None

    def test_corrupted_table_fails_with_witness(self, structs):
        flat = list(as_table(structs["T3"]).presentation.flat)
        flat[5] = (flat[5] + 1) % 3
        corrupted = from_table(3, 3, flat, verify=False)
        assert dornte_witness(corrupted) is not None


class TestArityTwo:
    def test_eval_degenerates_to_product(self):
        d4 = catalog_group("D4")
        p = derive(d4, Automorphism.identity(8), 0, 2)
        for x in range(8):
            for y in range(8):
                assert p.eval([x, y]) == d4.mul(x, y)

    def test_skew_is_the_identity_solution(self):
        # f(x, y) = x forces y = e; the binary skew is constant at the identity
        z6 = catalog_group("Z6")
        p = derive(z6, Automorphism.identity(6), 0, 2)
        for x in range(6):
            assert p.skew(x) == 0
            assert p.skew_oracle(x) == 0


class TestAllDerived:
    def test_z3_count(self):
        assert len(all_derived(catalog_group("Z3"), 3)) == 4

    def test_members_pass_dornte(self):
        for p in all_derived(catalog_group("Z4"), 4):
            assert dornte_witness(p) is None

    def test_derivation_conditions_hold(self):
        for p in all_derived(catalog_group("S3"), 3):
            pres = p.presentation
            assert pres.theta(pres.b) == pres.b
            power = pres.theta.power(2)
            for x in range(6):
                assert power(x) == pres.base.conj(pres.b, x)
