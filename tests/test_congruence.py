import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pglab import congruence
from pglab.congruence import (
    congruence_from_classes,
    congruences,
    congruences_bruteforce,
    congruences_theorem,
    enumerate_normal_polyadic,
    is_normal_congruence,
    kernel_class,
    Congruence,
    lattice_ops,
    lattice_table,
    quotient_by_congruence,
    quotient_polyadic,
)
from pglab.catalog import catalog, catalog_group, groups_of_order
from pglab.config import DEFAULT_CAPS, Caps
from pglab.errors import (
    IllDefined, MethodDisagreement, NoSolution, NotUnique, OrderCapExceeded, ValidationError,
)
from pglab.groups import Automorphism, make_group
from pglab.polyadic import PolyadicGroup, all_derived, as_table, derive, derive_b, from_table
from pglab.simplicity import _twist_classes, simplicity_report
from pglab.substructures import (
    enumerate_polyadic_subgroups,
    is_normal_polyadic,
    is_polyadic_subgroup,
)

from reference import (
    class_signature,
    cube,
    is_normal_subgroup,
    normal_congruence_condition_direct,
    pairs,
    reference_kernel,
    reference_lattice_ops,
    reference_normal_by_twist,
    reference_normal_congruence,
    reference_normal_theorem,
    monoid_keys,
    post_translations,
    reference_partition_scan,
    reference_translations,
    related,
    restricted_growth_strings,
    twisted_quotient,
    sim_h,
)


def is_congruence_by_definition(p, classes):
    """Oracle: both defining clauses checked tuple by tuple."""
    cls_of = {}
    for i, cls in enumerate(classes):
        for x in cls:
            cls_of[x] = i
    for x in range(p.order):
        if cls_of[p.skew(x)] != cls_of[p.skew(next(iter(classes[cls_of[x]])))]:
            return False
    for args in itertools.product(range(p.order), repeat=p.arity):
        for pos in range(p.arity):
            for y in classes[cls_of[args[pos]]]:
                other = args[:pos] + (y,) + args[pos + 1 :]
                if cls_of[p.eval(list(args))] != cls_of[p.eval(list(other))]:
                    return False
    return True


class TestPartitionGenerator:
    @pytest.mark.parametrize("m,count", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_bell_counts(self, m, count):
        assert len(list(restricted_growth_strings(m))) == count

    def test_strings_are_valid(self):
        for rgs in restricted_growth_strings(4):
            assert rgs[0] == 0
            for i in range(1, 4):
                assert rgs[i] <= max(rgs[:i]) + 1

    @pytest.mark.parametrize("m", range(1, 11))
    def test_array_equals_generator(self, m):
        # every partition of the carrier, packed into the congruence
        # oracle's uint64 keys and unpacked, is the generator's string
        strings = np.asarray(list(restricted_growth_strings(m)), dtype=np.uint8)
        keys = congruence._keys(strings)
        assert keys.dtype == np.uint64 and len(np.unique(keys)) == len(strings)
        assert congruence._rows(keys, m).tolist() == strings.tolist()


class TestBruteforce:
    def test_plain_sum_on_z4(self, structs):
        congs = congruences_bruteforce(structs["T4"])
        assert [len(kernel_class(c).members) for c in congs] == [1, 2, 4]

    def test_inversion_twist_on_z9(self, structs):
        congs = congruences_bruteforce(structs["T9"])
        assert [c.classes for c in congs][1] == ((0, 3, 6), (1, 4, 7), (2, 5, 8))
        assert len(congs) == 3

    def test_doubling_twist_on_z5(self, structs):
        congs = congruences_bruteforce(structs["T5"])
        assert len(congs) == 2
        assert congs[0].is_diagonal() and congs[1].is_full()

    def test_every_result_satisfies_definition(self, structs):
        for name in ("T3", "T4", "T2b", "V4swap"):
            p = structs[name]
            for c in congruences_bruteforce(p):
                assert is_congruence_by_definition(p, c.classes)

    def test_one_element(self, structs):
        assert len(congruences_bruteforce(structs["T1"])) == 1

    def test_equals_reference_scan(self, small_corpus, twists_9_10):
        for p in small_corpus + [as_table(p) for p in small_corpus] + twists_9_10:
            assert [c.classes for c in congruences_bruteforce(p)] == reference_partition_scan(p)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_equals_reference_on_relabelled_tables(self, corpus, data):
        p = data.draw(st.sampled_from(corpus))
        sigma = np.asarray(data.draw(st.permutations(range(p.order))))
        grid = sigma[cube(p)[np.ix_(*([np.argsort(sigma)] * p.arity))]]
        t = from_table(p.arity, p.order, grid.ravel().tolist(), verify=False)
        assert [c.classes for c in congruences_bruteforce(t)] == reference_partition_scan(t)

    def test_auto_runs_the_theorem_alone_past_16(self):
        # packed keys hold 16 values: with order_cap above that, "auto" must
        # not decide the oracles are feasible on order 17, whose table and
        # subset mask fit the cost cap
        caps = Caps(order_cap=20)
        base = make_group([[(i + j) % 17 for j in range(17)] for i in range(17)], caps=caps)
        p = derive_b(base, 0, 3, caps=caps)
        with pytest.raises(OrderCapExceeded, match="at most 16 values"):
            congruences_bruteforce(p, caps)
        assert congruences(p, caps=caps) == congruences_theorem(p)
        assert simplicity_report(p, caps=caps).method == "auto"

    def test_skew_is_one_of_the_maps(self):
        # not a polyadic group: f(x, y, z) stays in the class of x for the
        # classes {0, 1} | {2, 3}, so the partition is compatible with f,
        # but skew sends 0 to 0 and 1 to 2
        skew = (0, 2, 2, 3)
        flat = []
        for x, y, z in itertools.product(range(4), repeat=3):
            mate = x ^ 1
            flat.append(x if x != y or z == skew[x] else mate)
        p = from_table(3, 4, flat, verify=False)
        assert p.skew_table == skew
        cls_of = np.asarray([0, 0, 1, 1])
        assert np.array_equal(congruence._class_oracle(p, cls_of), class_signature(p, cls_of))
        got = [c.classes for c in congruences_bruteforce(p)]
        assert ((0, 1), (2, 3)) not in got
        assert got == reference_partition_scan(p)


class TestTranslations:
    """The congruence oracle's maps.  Post's maps f(α, 0,…,0, x, 0,…,0, γ)
    (tests/reference.py::post_translations) must be the distinct
    translations the table rows give, and a table's own map set is those
    rows.  A derived group's maps are Post's generators L_α, R_γ and M_i:
    each must be a table row, and their compositions must reach every Post
    map.  The lattice tests cannot tell a map set that only generates the
    same congruences (γ held at 0 at the inner positions, or the end
    positions dropped, give the true lattice on the whole corpus), so the
    sets are compared here."""

    def test_equal_the_table_rows_on_the_corpus(self, corpus):
        for p in corpus:
            fresh = PolyadicGroup(p.arity, p.presentation)  # holds no table yet
            post = post_translations(fresh)
            assert "flat_np" not in fresh.__dict__
            expected = reference_translations(fresh)
            assert np.array_equal(post, expected), p
            table_maps = congruence._translations(as_table(fresh))
            assert np.array_equal(congruence._keys(table_maps.astype(np.uint8)), expected), p

    @pytest.mark.parametrize("order, arity", [(7, 7), (7, 8), (8, 7), (8, 8)])
    def test_equal_the_table_rows_on_census_representatives(self, order, arity):
        for base in groups_of_order(order):
            for p, _ in _twist_classes(base, arity, DEFAULT_CAPS):
                assert np.array_equal(post_translations(p), reference_translations(p)), p

    @staticmethod
    def _generators_reach_post(p, rows):
        """rows: the keys of p's table rows, or of its Post maps, which the
        tests above show equal to them (the m^n rows of an arity-8
        representative take seconds to read)."""
        fresh = PolyadicGroup(p.arity, p.presentation)
        maps = congruence._translations(fresh)
        if fresh.is_derived:
            assert "flat_np" not in fresh.__dict__
            assert len(maps) == 2 * p.order + p.arity - 2, p
        keys = congruence._keys(maps.astype(np.uint8))
        assert np.isin(keys, rows).all(), p  # every generator is a basic translation
        post = post_translations(fresh) if fresh.is_derived else rows
        assert np.isin(post, monoid_keys(maps)).all(), p

    def test_generators_reach_every_post_map_on_the_corpus(self, corpus):
        for p in corpus:
            rows = reference_translations(p)
            self._generators_reach_post(p, rows)
            self._generators_reach_post(as_table(p), rows)

    @pytest.mark.parametrize("order, arity", [(7, 7), (7, 8), (8, 7), (8, 8)])
    def test_generators_reach_every_post_map_on_census_representatives(self, order, arity):
        for base in groups_of_order(order):
            for p, _ in _twist_classes(base, arity, DEFAULT_CAPS):
                self._generators_reach_post(p, post_translations(p))

    def test_derived_oracle_builds_no_operation_table(self):
        v = catalog_group("Z2xZ2")
        for p in (derive(v, Automorphism((0, 2, 1, 3)), 0, 7), derive_b(catalog_group("Z7"), 2, 7)):
            assert congruences_bruteforce(p) == congruences_theorem(p)
            assert "flat_np" not in p.__dict__


def _reaches_zero(maps):
    """Whether every element is sent to 0 by some map that is a
    permutation, read map by map."""
    m = maps.shape[1]
    hit = {row.index(0) for row in maps.tolist() if sorted(row) == list(range(m))}
    return len(hit) == m


def _all_pairs(m):
    r = np.arange(m)
    return np.nonzero(r[:, None] < r)


def _zero_pairs(m):
    return np.zeros(m - 1, dtype=np.intp), np.arange(1, m)


def _oracle_maps(p):
    return np.vstack([congruence._translations(p), [p.skew_table]])


def _tables_with_skew():
    """Seeded uniform tables of orders 3–4 and arities 2–3 whose skew is
    well defined: none need be an n-ary group."""
    rng, out = random.Random(5), []
    for _ in range(3000):
        m, n = rng.choice((3, 4)), rng.choice((2, 3))
        p = from_table(n, m, [rng.randrange(m) for _ in range(m**n)], verify=False)
        try:
            p.skew_table
        except (NoSolution, NotUnique):
            continue
        out.append(p)
    return out


# The one table of _tables_with_skew whose lattice the (0, c) pairs alone
# would change: Cg(1, 2) = {0}{1, 2} is no Cg(0, c).
ZERO_PAIRS_FAIL = (2, 3, (0, 1, 1, 2, 1, 2, 1, 1, 2))


class TestPrincipalSeeds:
    """The Mal'cev oracle seeds its fixpoint with the (0, c) pairs when
    every element is sent to 0 by a map that is a permutation, and with
    every pair otherwise; either way it finds every principal congruence."""

    def test_zero_pairs_on_the_corpus_and_its_table_forms(self, corpus):
        for p in corpus:
            for q in (PolyadicGroup(p.arity, p.presentation), as_table(p)):
                maps = _oracle_maps(q)
                assert _reaches_zero(maps), q
                everything = congruence._principal(maps, _all_pairs(q.order))
                assert np.array_equal(congruence._principal(maps, _zero_pairs(q.order)), everything)
                assert np.array_equal(congruence._principal(maps), everything), q

    def test_tables_that_are_no_groups(self):
        tables = _tables_with_skew()
        failing = [p for p in tables if not _reaches_zero(_oracle_maps(p))]
        assert (len(tables), len(failing)) == (198, 113)
        for p in tables:
            maps = _oracle_maps(p)
            everything = congruence._principal(maps, _all_pairs(p.order))
            assert np.array_equal(congruence._principal(maps), everything), p
            if p not in failing:
                assert np.array_equal(congruence._principal(maps, _zero_pairs(p.order)), everything)
            assert [c.classes for c in congruences_bruteforce(p)] == reference_partition_scan(p)

    def test_zero_pairs_alone_change_one_lattice(self):
        def changed(p):
            maps = _oracle_maps(p)
            zero = congruence._principal(maps, _zero_pairs(p.order))
            return not np.array_equal(zero, congruence._principal(maps, _all_pairs(p.order)))

        found = [p for p in _tables_with_skew() if changed(p)]
        assert [(p.arity, p.order, tuple(p.flat_np.tolist())) for p in found] == [ZERO_PAIRS_FAIL]
        # the (0, c) pairs give the full relation alone, so their joins would
        # be the diagonal and the full relation; {0}{1, 2} is a congruence too
        full = congruence._keys(np.zeros((1, 3), dtype=np.uint8))
        assert np.array_equal(congruence._principal(_oracle_maps(found[0]), _zero_pairs(3)), full)
        lattice = [((0,), (1,), (2,)), ((0,), (1, 2)), ((0, 1, 2),)]
        assert reference_partition_scan(found[0]) == lattice


class TestTheorem:
    def test_plain_sum_on_z4(self, structs):
        congs = congruences_theorem(structs["T4"])
        assert len(congs) == 3

    def test_plain_sum_on_z3(self, structs):
        congs = congruences_theorem(structs["T3"])
        assert len(congs) == 2

    def test_agreement_on_sample(self, corpus):
        for p in corpus[::13]:
            brute = [c.classes for c in congruences_bruteforce(p)]
            theorem = [c.classes for c in congruences_theorem(p)]
            assert brute == theorem

    def test_pairs_form_twist_subgroup(self, structs):
        # every congruence, viewed as pairs, is closed under the square
        # product and the componentwise twist
        p = structs["T9"]
        base = p.presentation.base
        theta = p.presentation.theta
        for c in congruences_bruteforce(p):
            rel = pairs(c)
            assert all((x, x) in rel for x in range(9))
            assert all((theta(a), theta(b)) in rel for a, b in rel)
            for (a, b), (u, v) in itertools.product(rel, repeat=2):
                assert (base.mul(a, u), base.mul(b, v)) in rel

    def test_twist_saturation(self, small_corpus):
        for p in small_corpus[::5]:
            theta = p.presentation.theta
            for c in congruences_theorem(p):
                for x in range(p.order):
                    for y in range(p.order):
                        assert related(c, x, y) == related(c, theta(x), theta(y))


class TestKernelClass:
    def test_middle_congruence(self, structs):
        congs = congruences_bruteforce(structs["T4"])
        assert kernel_class(congs[1]).members == (0, 2)

    def test_diagonal(self, structs):
        congs = congruences_bruteforce(structs["T3"])
        assert kernel_class(congs[0]).members == (0,)

    def test_full(self, structs):
        congs = congruences_bruteforce(structs["T3"])
        assert kernel_class(congs[-1]).members == (0, 1, 2)

    def test_kernel_is_invariant_normal(self, corpus):
        for p in corpus[::19]:
            base = p.presentation.base
            theta = p.presentation.theta
            for c in congruences_theorem(p):
                members = kernel_class(c).members
                assert is_normal_subgroup(base, members)
                assert frozenset(theta(x) for x in members) == frozenset(members)

    def test_constant_relation_flags_subgroup(self, small_corpus):
        # the kernel class is a polyadic subgroup exactly when b relates to e
        for p in small_corpus[::3]:
            for c in congruences_bruteforce(p):
                kc = kernel_class(c)
                assert kc.b_related == is_polyadic_subgroup(p, kc.members)

    def test_builds_no_operation_table(self):
        p = derive(catalog_group("Z4"), Automorphism.identity(4), 0, 5)
        for c in congruences_theorem(p):
            kernel_class(c)
        assert "flat_np" not in p.__dict__


class TestRelabelledTables:
    @settings(max_examples=40)
    @given(data=st.data())
    def test_theorem_equals_oracle(self, corpus, data):
        p = data.draw(st.sampled_from(corpus))
        m, n = p.order, p.arity
        sigma = np.asarray(data.draw(st.permutations(range(m))))
        grid = sigma[cube(p)[np.ix_(*([np.argsort(sigma)] * n))]]
        t = from_table(n, m, grid.ravel().tolist(), verify=False)

        image = sorted(
            (
                tuple(sorted(tuple(sorted(int(sigma[x]) for x in cls)) for cls in c.classes))
                for c in congruences_bruteforce(p)
            ),
            key=lambda classes: (-len(classes), classes),
        )
        theorem = congruences_theorem(t)
        assert [c.classes for c in theorem] == image
        assert [c.classes for c in congruences_bruteforce(t)] == image
        assert enumerate_normal_polyadic(t, "theorem") == enumerate_normal_polyadic(t, "oracle")
        for r in theorem:
            kc = kernel_class(r)
            assert kc.b_related == is_polyadic_subgroup(t, kc.members)

        def sigma_image(c):
            return tuple(sorted(tuple(sorted(int(sigma[x]) for x in cls)) for cls in c.classes))

        on_t = {c.classes: c for c in theorem}
        source = congruences_bruteforce(p)
        for r, q in itertools.product(source, repeat=2):
            ref = reference_lattice_ops(r, q)
            ops = lattice_ops(on_t[sigma_image(r)], on_t[sigma_image(q)])
            assert ops.meet.classes == sigma_image(ref.meet)
            assert ops.join.classes == sigma_image(ref.join)
            assert ops.commutes and ops.composition_is_product and ops.kernel_identities


class TestLattice:
    def test_diagonal_is_identity(self, structs):
        congs = congruences_bruteforce(structs["T4"])
        diag, mid = congs[0], congs[1]
        ops = lattice_ops(diag, mid)
        assert ops.meet.classes == diag.classes
        assert ops.join.classes == mid.classes
        assert ops.commutes

    def test_chain_lattice(self, structs):
        congs = congruences_bruteforce(structs["T4"])
        ops = lattice_ops(congs[1], congs[2])
        assert ops.meet.classes == congs[1].classes
        assert ops.join.classes == congs[2].classes

    def test_diagnostics_hold_on_sample(self, corpus):
        for p in corpus[::29]:
            congs = congruences_theorem(p)
            for r, q in itertools.product(congs, repeat=2):
                ops = lattice_ops(r, q)
                assert ops.commutes
                assert ops.composition_is_product
                assert ops.kernel_identities

    def test_join_is_pair_set_product(self, small_corpus):
        """Oracle: R∨Q = R·Q = {(a·c, b·d)}, products taken in the base group."""
        for p in small_corpus[::4]:
            hg = p.view
            base, relabel, unrelabel = hg.base, hg.relabel, hg.unrelabel

            def mul(x, y):
                return unrelabel[base.mul(relabel[x], relabel[y])]

            congs = congruences_theorem(p)
            for r, q in itertools.product(congs, repeat=2):
                product = {
                    (mul(a, c), mul(b, d)) for (a, b) in pairs(r) for (c, d) in pairs(q)
                }
                assert pairs(lattice_ops(r, q).join) == product

    def test_honours_caps_on_tables(self):
        # built under arity_cap 9, the table's view is not refused by the defaults
        caps = Caps(arity_cap=9)
        p = as_table(derive_b(catalog_group("Z2"), 1, 9, caps=caps))
        congs = congruences_theorem(p)
        ops = lattice_ops(congs[0], congs[-1])
        assert ops.join.classes == congs[-1].classes and ops.kernel_identities

    def test_honours_order_cap_on_tables(self):
        # the view's retract group is not refused by the default order cap
        caps = Caps(order_cap=17)
        base = make_group([[(i + j) % 17 for j in range(17)] for i in range(17)], caps=caps)
        p = as_table(derive_b(base, 0, 3, caps=caps))
        assert [c.num_classes for c in congruences_theorem(p)] == [17, 1]

    def test_modular_law_on_sample(self, small_corpus):
        for p in small_corpus[::4]:
            congs = congruences_theorem(p)
            for r, q, t in itertools.product(congs, repeat=3):
                if not pairs(r) <= pairs(t):
                    continue
                lhs = lattice_ops(r, lattice_ops(q, t).meet).join
                rhs = lattice_ops(lattice_ops(r, q).join, t).meet
                assert lhs.classes == rhs.classes


def lattice_cells(p):
    """(meet, join, commutes, composition_is_product, kernel_identities) of
    every ordered pair of p's congruences, read from the stored table and
    from the pairwise reference."""
    congs = congruences_theorem(p)
    table, ref = [], []
    for r, q in itertools.product(congs, repeat=2):
        for out, ops in ((table, lattice_ops(r, q)), (ref, reference_lattice_ops(r, q))):
            out.append((ops.meet.classes, ops.join.classes, ops.commutes,
                        ops.composition_is_product, ops.kernel_identities))
    return table, ref


def modular_by_triples(p):
    table = lattice_table(p)
    meet, join, k = table.meet, table.join, len(table.meet)
    return all(
        join[a, meet[b, c]] == meet[join[a, b], c]
        for a, b, c in itertools.product(range(k), repeat=3)
        if meet[a, c] == a
    )


class TestLatticeTable:
    def test_equals_reference_on_corpus(self, corpus):
        pairs = 0
        for p in corpus:
            table, ref = lattice_cells(p)
            assert table == ref, p
            assert lattice_table(p).modular and modular_by_triples(p)
            pairs += len(table)
        assert len(corpus) == 770 and pairs == 28153

    def test_equals_reference_on_table_forms(self, corpus):
        # a table form is read through its split at 0, which moves skew(0) to
        # the identity: when b is not the identity the relabelling is not either
        sample = [as_table(p) for p in random.Random(22).sample(corpus, 80)]
        moved = [t for t in sample if t.view.relabel != tuple(range(t.order))]
        assert len(moved) >= 20
        for t in sample:
            table, ref = lattice_cells(t)
            assert table == ref, t
            assert lattice_table(t).modular and modular_by_triples(t)

    def test_stored_once(self, structs):
        p = structs["V4swap"]
        congs = congruences_theorem(p)
        ops = lattice_ops(congs[1], congs[2])
        assert lattice_table(p) is p.__dict__["lattice"]
        assert ops.meet is congs[1] and ops.join is congs[2]

    def test_refuses_a_partition_outside_the_lattice(self, structs):
        p = structs["T4"]
        outside = Congruence(p, ((0, 1), (2, 3)))  # not a congruence of Z4
        full = congruences_theorem(p)[-1]
        for r, q in ((outside, full), (full, outside)):
            with pytest.raises(ValidationError, match="not a congruence"):
                lattice_ops(r, q)

    def test_refuses_congruences_on_different_structures(self, structs):
        r, q = congruences_theorem(structs["T4"])[0], congruences_theorem(structs["T3"])[0]
        with pytest.raises(ValidationError, match="different polyadic groups"):
            lattice_ops(r, q)


def kernel_rows(p):
    """(kernel class, normal witness) of each of p's congruences, read from
    the kernel table and from the one-congruence-at-a-time references, and
    the twist criterion on each theorem subgroup, read both ways."""
    congs = congruences_theorem(p)
    subs = [s.members for s in enumerate_polyadic_subgroups(p, "theorem")]
    table = ([(kernel_class(r), is_normal_congruence(r)) for r in congs],
             [is_normal_polyadic(p, s) for s in subs])
    ref = ([(reference_kernel(r), reference_normal_congruence(r)) for r in congs],
           [reference_normal_by_twist(p, s) for s in subs])
    return table, ref


class TestKernelTable:
    def test_equals_reference_on_corpus(self, corpus):
        congs = subs = 0
        for p in corpus:
            table, ref = kernel_rows(p)
            assert table == ref, p
            congs, subs = congs + len(table[0]), subs + len(table[1])
        assert len(corpus) == 770 and congs == 4143 and subs == 7531

    def test_equals_reference_on_table_forms(self, corpus):
        # a table form's view relabels its carrier (skew(0) moves to the
        # identity), so the kernel masks and the twisted conjugates are read
        # through a relabelling that is not the identity
        sample = [as_table(p) for p in random.Random(23).sample(corpus, 110)]
        moved = [t for t in sample if t.view.relabel != tuple(range(t.order))]
        assert len(moved) >= 60
        for t in sample:
            table, ref = kernel_rows(t)
            assert table == ref, t

    def test_reads_build_no_lattice_table(self, structs):
        for p in (as_table(structs["V4swap"]), derive_b(catalog_group("Z2"), 1, 3)):
            for r in congruences(p):
                kernel_class(r)
                is_normal_congruence(r)
            assert "kernels" in p.__dict__ and "lattice" not in p.__dict__

    def test_refuses_a_partition_outside_the_lattice(self):
        p = derive(catalog_group("Z4"), Automorphism.identity(4), 0, 3)
        outside = Congruence(p, ((0, 2), (1,), (3,)))
        for read in (kernel_class, is_normal_congruence):
            with pytest.raises(ValidationError, match="not a congruence"):
                read(outside)

    def test_a_witness_whose_cosets_differ_is_a_disagreement(self):
        # with skew taken as the identity, 0 passes both witness conditions on
        # der(Z2, id, 1, 3)'s diagonal, but f(x, 0, 0) = x + 1 moves every class
        p = derive_b(catalog_group("Z2"), 1, 3)
        p.__dict__["skew_table"] = (0, 1)
        with pytest.raises(MethodDisagreement, match="witness 0"):
            is_normal_congruence(congruences_theorem(p)[0])


class TestSimH:
    def test_swap_diagonal(self, structs):
        cong = sim_h(structs["V4swap"], (0, 3))
        assert cong.classes == ((0, 3), (1, 2))

    def test_whole_subgroup(self, structs):
        cong = sim_h(structs["T9"], tuple(range(9)))
        assert cong.is_full()

    def test_trivial_subgroup(self, structs):
        cong = sim_h(structs["T3"], (0,))
        assert cong.is_diagonal()


class TestNormalCongruence:
    def test_coset_congruences_are_normal(self, corpus):
        for p in corpus[::27]:
            for h in enumerate_normal_polyadic(p):
                cong = sim_h(p, h)
                assert is_normal_congruence(cong) is not None

    def test_middle_of_inversion_twist_is_not(self, structs):
        congs = congruences_bruteforce(structs["T9"])
        assert is_normal_congruence(congs[1]) is None

    def test_full_relation_is_normal(self, structs):
        congs = congruences_bruteforce(structs["T9"])
        assert is_normal_congruence(congs[-1]) is not None

    def test_upward_closure(self, small_corpus):
        for p in small_corpus[::6]:
            congs = congruences_theorem(p)
            for r, q in itertools.product(congs, repeat=2):
                if pairs(r) <= pairs(q) and is_normal_congruence(r) is not None:
                    assert is_normal_congruence(q) is not None

    def test_builds_no_operation_table(self):
        # the oracle's gate refuses der(Z4, id, 0, 5)'s 1,024 cells, and the
        # coset congruences rebuilt by the check read no table either
        p = derive(catalog_group("Z4"), Automorphism.identity(4), 0, 5)
        congs = congruences(p, caps=Caps(axiom_cost_cap=500))
        assert len(congs) == 3
        for r in congs:
            assert is_normal_congruence(r) is not None
        assert "flat_np" not in p.__dict__

    def test_direct_condition_agrees(self, small_corpus):
        for p in small_corpus[::6]:
            if p.arity < 3:
                continue
            theta_inv = p.presentation.theta.inverse()
            base = p.presentation.base
            for c in congruences_theorem(p):
                for a in range(p.order):
                    twist_form = all(
                        related(c, base.mul(theta_inv(base.mul(base.inv(x), a)), x), a)
                        for x in range(p.order)
                    )
                    assert twist_form == normal_congruence_condition_direct(c, a)


def _carry(cube, perm):
    """The flat table of perm·cube: x ↦ perm[x] on every axis."""
    return perm[cube[np.ix_(*[np.argsort(perm)] * cube.ndim)]].ravel()


class TestNormalTheoremRoute:
    """The normal polyadic subgroups read off the kernel table's normal mask
    equal the theorem subgroups filtered by the twist criterion."""

    def test_equals_reference_on_corpus(self, corpus):
        found = 0
        for p in corpus:
            got = enumerate_normal_polyadic(p, "theorem")
            assert got == reference_normal_theorem(p), p
            found += len(got)
        assert len(corpus) == 770 and found == 3743

    def test_equals_reference_on_table_forms(self, corpus):
        # only forms whose view relabels the carrier, so the labels, the
        # normal mask and the twisted conjugates are read through a
        # relabelling that is not the identity
        sample = [as_table(p) for p in random.Random(28).sample(corpus, 300)]
        moved = [t for t in sample if t.view.relabel != tuple(range(t.order))]
        assert len(moved) >= 110
        for t in moved:
            assert enumerate_normal_polyadic(t, "theorem") == reference_normal_theorem(t), t

    @settings(max_examples=40)
    @given(data=st.data())
    def test_relabelled_copy_gives_the_carried_subgroups(self, corpus, data):
        p = data.draw(st.sampled_from(corpus))
        sigma = np.asarray(data.draw(st.permutations(range(p.order))))
        t = from_table(p.arity, p.order, _carry(cube(p), sigma), verify=False)
        got = enumerate_normal_polyadic(t, "theorem")
        assert got == reference_normal_theorem(t)
        carried = [tuple(sorted(sigma[list(h.members)].tolist()))
                   for h in enumerate_normal_polyadic(p)]
        assert [h.members for h in got] == sorted(carried, key=lambda s: (len(s), s))


class TestQuotientByCongruence:
    def test_inversion_twist_middle(self, structs):
        congs = congruences_bruteforce(structs["T9"])
        q = quotient_by_congruence(structs["T9"], congs[1])
        assert q.order == 3
        assert q.presentation.theta.perm == (0, 2, 1)
        assert q.presentation.b == 0

    def test_diagonal_returns_same_presentation(self, structs):
        p = structs["T4"]
        congs = congruences_bruteforce(p)
        q = quotient_by_congruence(p, congs[0])
        assert q.presentation.base.table == p.presentation.base.table
        assert q.presentation.theta.perm == p.presentation.theta.perm
        assert q.presentation.b == p.presentation.b

    def test_full_relation_collapses(self, structs):
        congs = congruences_bruteforce(structs["T5"])
        q = quotient_by_congruence(structs["T5"], congs[-1])
        assert q.order == 1

    def test_gathers_equal_the_coset_loop_on_the_corpus(self, corpus):
        # every congruence of every corpus structure and of its table form:
        # the quotient's presentation is the coset loop's on the view
        quotients = 0
        for p in corpus:
            for form in (p, as_table(p)):
                hg = form.view
                for r in congruences_theorem(form):
                    kernel = [hg.relabel[x] for x in kernel_class(r).members]
                    base, proj, theta = twisted_quotient(hg.base, hg.theta, kernel)
                    q = quotient_by_congruence(form, r).presentation
                    assert (q.base.table, q.theta.perm, q.b) == (base.table, theta.perm, proj[hg.b])
                    quotients += 1
        assert quotients == 8286


_SMALL_BASES = [g for g in catalog().values() if g.order <= 8]


class TestQuotientTransport:
    @given(data=st.data())
    def test_relabelled_table_gives_the_carried_quotient(self, data):
        """A relabelling σ of the table form carries the quotient: the
        quotient of σ·p by σ(H) is p's quotient by H with each class C
        moved to σ(C) and the classes renumbered in sorted order.  Both
        routes run and must agree."""
        base = data.draw(st.sampled_from(_SMALL_BASES))
        p = data.draw(st.sampled_from(all_derived(base, data.draw(st.integers(3, 5)))))
        h = data.draw(st.sampled_from(enumerate_normal_polyadic(p)))
        m, n = p.order, p.arity
        sigma = np.asarray(data.draw(st.permutations(range(m))))
        got = quotient_polyadic(from_table(n, m, _carry(cube(p), sigma)), sigma[list(h.members)])

        want = quotient_polyadic(p, h)
        carried = [tuple(sorted(sigma[list(c)].tolist())) for c in want.classes]
        pi = np.argsort(sorted(range(len(carried)), key=carried.__getitem__))  # class i ↦ its rank
        assert got.classes == tuple(sorted(carried))
        assert got.quotient == from_table(n, len(carried), _carry(cube(want.quotient), pi))


class TestClassOracle:
    def test_equals_the_class_signature(self, small_corpus):
        """The quotient oracle against the m^n class signature
        (tests/reference.py) on every partition of each structure of order
        up to 4 and of its table form: both refuse, or they write equal
        tables."""
        refused = []
        for p in [q for q in small_corpus if q.order <= 4]:
            for form in (p, as_table(p)):
                for cls_of in map(np.asarray, restricted_growth_strings(p.order)):
                    want = class_signature(form, cls_of)
                    try:
                        got = congruence._class_oracle(form, cls_of)
                    except IllDefined:
                        got = None
                    assert (got is None) == (want is None), (form, cls_of)
                    assert want is None or np.array_equal(got, want), (form, cls_of)
                    refused.append(want is None)
        assert any(refused) and not all(refused)


class TestFromClasses:
    def test_accepts_valid(self, structs):
        cong = congruence_from_classes(structs["T4"], [[0, 2], [1, 3]])
        assert cong.num_classes == 2

    def test_rejects_incompatible(self, structs):
        with pytest.raises(ValidationError):
            congruence_from_classes(structs["T4"], [[0, 1], [2, 3]])

    def test_rejects_non_partition(self, structs):
        with pytest.raises(ValidationError):
            congruence_from_classes(structs["T4"], [[0, 1], [1, 2, 3]])

    @pytest.mark.parametrize("classes", [[[0], [1], [2], []], [[], [0, 1, 2]]])
    def test_rejects_empty_class(self, structs, classes):
        with pytest.raises(ValidationError):
            congruence_from_classes(structs["T3"], classes)
