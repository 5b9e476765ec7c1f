import time
from dataclasses import replace

import numpy as np
import pytest

from pglab import congruence, morphisms, polyadic, simplicity, substructures
from pglab.catalog import catalog_group, cyclic, groups_of_order
from pglab.config import DEFAULT_CAPS, Caps
from pglab.errors import CostCapExceeded, InternalContradiction, ValidationError
from pglab.groups import Automorphism, automorphisms, enumerate_subgroups, inverse_perm
from pglab.morphisms import _split_maps, are_isomorphic
from pglab.polyadic import (
    PolyadicGroup, all_derived, as_table, derive_b, dornte_witness, verify_axioms,
)
from pglab.simplicity import (
    census,
    is_gts,
    is_gts_star,
    is_uas,
    simplicity_report,
)

from reference import reference_twist_classes, transport_twist


class TestThetaSimple:
    def test_prime_order_always(self):
        theta = Automorphism(tuple(2 * x % 5 for x in range(5)))
        sizes = [s.size for s in enumerate_subgroups(catalog_group("Z5"), theta=theta)]
        assert sizes == [1, 5]

    def test_inversion_on_z9(self):
        theta = Automorphism(tuple((-x) % 9 for x in range(9)))
        sizes = [s.size for s in enumerate_subgroups(catalog_group("Z9"), theta=theta)]
        assert sizes == [1, 3, 9]

    def test_swap_on_klein(self):
        swap = Automorphism((0, 2, 1, 3))
        sizes = [s.size for s in enumerate_subgroups(catalog_group("Z2xZ2"), theta=swap)]
        assert sizes == [1, 2, 4]


class TestUAS:
    def test_doubling_twist_is_uas(self, structs):
        flag, witness = is_uas(structs["T5"])
        assert flag and witness is None

    def test_inversion_twist_is_not(self, structs):
        flag, witness = is_uas(structs["T9"])
        assert not flag
        assert witness.classes == ((0, 3, 6), (1, 4, 7), (2, 5, 8))

    def test_one_element(self, structs):
        assert is_uas(structs["T1"])[0]

    def test_methods_agree_individually(self, structs):
        for name in ("T3", "T5", "T9", "V4swap", "T2b"):
            p = structs[name]
            assert is_uas(p, method="theorem")[0] == is_uas(p, method="oracle")[0]


class TestGTS:
    def test_inversion_twist(self, structs):
        assert is_gts(structs["T9"])[0]
        assert is_gts_star(structs["T9"])[0]

    def test_swap_twist_fails_with_diagonal(self, structs):
        flag, witness = is_gts(structs["V4swap"])
        assert not flag
        assert witness.members == (0, 3)

    def test_plain_sum_is_gts_not_star(self, structs):
        assert is_gts(structs["T3"])[0]
        flag, witness = is_gts_star(structs["T3"])
        assert not flag
        assert witness.members == (0,)

    def test_methods_agree_individually(self, structs):
        for name in ("T3", "T5", "T9", "V4swap", "T2b"):
            p = structs[name]
            assert is_gts(p, method="theorem")[0] == is_gts(p, method="oracle")[0]
            assert (
                is_gts_star(p, method="theorem")[0]
                == is_gts_star(p, method="oracle")[0]
            )


class TestReport:
    def test_inversion_twist(self, structs):
        rep = simplicity_report(structs["T9"])
        assert (rep.uas, rep.gts, rep.gts_star, rep.reduced) == (
            False, True, True, False,
        )
        assert rep.method == "both"
        assert "uas" in rep.witnesses

    def test_doubling_twist(self, structs):
        rep = simplicity_report(structs["T5"])
        assert (rep.uas, rep.gts, rep.gts_star, rep.reduced) == (
            True, True, True, False,
        )

    def test_shifted_sum(self, structs):
        rep = simplicity_report(structs["T2b"])
        assert (rep.uas, rep.gts, rep.gts_star, rep.reduced) == (
            True, True, True, False,
        )

    def test_degenerate_point(self, structs):
        rep = simplicity_report(structs["T1"])
        assert rep.degenerate
        assert rep.uas and rep.gts and rep.gts_star

    def test_implications_on_sample(self, corpus):
        for p in corpus[::11]:
            rep = simplicity_report(p)
            assert not rep.uas or rep.gts
            if rep.gts and not rep.gts_star:
                assert rep.reduced

    @pytest.mark.parametrize(
        "order, arity, caps, method",
        [
            (4, 3, DEFAULT_CAPS, "both"),
            (11, 4, DEFAULT_CAPS, "both"),
            (12, 3, DEFAULT_CAPS, "both"),
            (16, 5, DEFAULT_CAPS, "both"),
            (10, 8, DEFAULT_CAPS, "both"),  # 10^8 cells a table would hold, never built
            (5, 3, Caps(axiom_cost_cap=(5 << 5) - 1), "auto"),  # one bit short of the mask
        ],
    )
    def test_both_means_both_oracles_ran(self, monkeypatch, order, arity, caps, method):
        ran = []
        for module, name in ((congruence, "_malcev_lattice"), (substructures, "_subset_scan")):
            oracle = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda p, *args, oracle=oracle, name=name: ran.append(name) or oracle(p, *args),
            )
        p = derive_b(cyclic(order), 0, arity, caps=caps)
        rep = simplicity_report(p, caps=caps)
        assert rep.method == method
        assert sorted(ran) == (["_malcev_lattice", "_subset_scan"] if method == "both" else [])
        # on derived input no route builds the m^n table, whichever ran
        assert "flat_np" not in p.__dict__


class TestCensus:
    def test_two_elements_exhaustive(self):
        start = time.monotonic()
        entries = census(2, 3, "exhaustive")
        elapsed = time.monotonic() - start
        assert len(entries) == 2
        assert elapsed < 1.0
        for e in entries:
            assert dornte_witness(e.representative) is None
            assert verify_axioms(as_table(e.representative)).ok

    def test_two_elements_derived_matches(self):
        derived = census(2, 3, "derived")
        exhaustive = census(2, 3, "exhaustive")
        assert len(derived) == len(exhaustive) == 2
        flags_d = sorted((e.report.reduced, e.report.gts_star) for e in derived)
        flags_e = sorted((e.report.reduced, e.report.gts_star) for e in exhaustive)
        assert flags_d == flags_e

    def test_one_element(self):
        assert len(census(1, 3, "derived")) == 1

    def test_three_elements_derived(self):
        entries = census(3, 3, "derived")
        # the shifted sums are all isomorphic to the plain sum; the inversion
        # twist stands alone
        assert len(entries) == 2
        assert sorted(e.multiplicity for e in entries) == [1, 3]

    def test_three_elements_exhaustive_at_arity_two(self):
        """The one exhaustive cell of the suite with m > 2, where (0 1) and
        (0 1 2) are two moves: the three labellings of Z3 are one class."""
        exhaustive = census(3, 2, "exhaustive")
        derived = census(3, 2)
        assert [(e.multiplicity, e.report) for e in exhaustive] == [
            (e.multiplicity, e.report) for e in derived
        ] == [(3, derived[0].report)]

    def test_exhaustive_cap(self):
        with pytest.raises(CostCapExceeded):
            census(3, 3, "exhaustive")

    def test_exhaustive_cost_is_axiom_cost(self):
        """The scan checks m^(m^n) tables on m^(2n−1) tuples each: (2, 3)
        needs 2^13 cells."""
        census(2, 3, "exhaustive", caps=Caps(axiom_cost_cap=2**13))
        with pytest.raises(CostCapExceeded) as info:
            census(2, 3, "exhaustive", caps=Caps(axiom_cost_cap=2**13 - 1))
        assert (info.value.cap, info.value.required) == ("axiom_cost_cap", 2**13)

    def test_exhaustive_refusal_counts_below_the_cap_bits(self):
        # the size guard counts m^e whenever e·⌊log₂ m⌋ ≤ 64, whatever the
        # cap: (2, 3) needs 2^13 cells, a 12-bit cap refuses that number
        with pytest.raises(CostCapExceeded) as info:
            census(2, 3, "exhaustive", caps=Caps(axiom_cost_cap=4000))
        assert info.value.required == 2**13
        assert "needs 8192 cells; axiom_cost_cap is 4000" in str(info.value)

    def test_exhaustive_refusal_computes_no_huge_count(self):
        start = time.perf_counter()
        with pytest.raises(CostCapExceeded) as info:
            census(5, 6, "exhaustive")
        assert time.perf_counter() - start < 1
        assert info.value.required is None
        assert "5^15636" in str(info.value)

    @pytest.mark.parametrize("order, arity", [(-2, 3), (2, -1)])
    def test_exhaustive_refuses_bad_order_and_arity(self, order, arity):
        with pytest.raises(ValidationError):
            census(order, arity, "exhaustive")

    # (order, arity) -> (classes, multiplicity sum, UAS, GTS, GTS* classes)
    @pytest.mark.parametrize(
        "cell,counts",
        [
            ((4, 3), (7, 16, 0, 1, 1)),
            ((4, 4), (3, 10, 1, 1, 1)),
            ((4, 5), (9, 16, 0, 1, 1)),
            ((6, 3), (5, 14, 0, 1, 1)),
            ((6, 4), (3, 12, 0, 0, 0)),
            ((6, 5), (5, 14, 0, 1, 1)),
            ((8, 3), (28, 184, 0, 1, 1)),
            ((8, 4), (7, 168, 0, 1, 1)),
            ((8, 5), (40, 272, 0, 1, 1)),
            ((9, 3), (5, 56, 0, 2, 2)),
            ((9, 4), (8, 48, 0, 1, 1)),
            ((9, 5), (6, 62, 1, 3, 3)),
            ((10, 3), (6, 32, 0, 2, 2)),
            ((10, 4), (2, 20, 0, 0, 0)),
            ((10, 5), (10, 36, 0, 3, 3)),
            ((11, 3), (2, 12, 2, 2, 1)),
            ((11, 4), (1, 11, 1, 1, 0)),
            ((11, 5), (2, 12, 2, 2, 1)),
        ],
    )
    def test_derived_cell_counts(self, cell, counts):
        entries = census(*cell)
        assert (
            len(entries),
            sum(e.multiplicity for e in entries),
            sum(e.report.uas for e in entries),
            sum(e.report.gts for e in entries),
            sum(e.report.gts_star for e in entries),
        ) == counts

    @pytest.mark.parametrize("order", [12, 13])
    def test_refuses_incomplete_catalog_order(self, order):
        with pytest.raises(ValidationError):
            census(order, 3)

    def test_reports_attached(self):
        entries = census(2, 3, "exhaustive")
        reduced_flags = sorted(e.report.reduced for e in entries)
        assert reduced_flags == [False, True]


def reference_pairwise_census(order, arity):
    """The derived census's classes found pairwise: (representative, class
    size) in order of first candidate, every twist of every catalog group
    of the order tested against the representatives found so far."""
    reps, counts = [], []
    for base in groups_of_order(order):
        for cand in all_derived(base, arity):
            for i, rep in enumerate(reps):
                if are_isomorphic(cand, rep) is not None:
                    counts[i] += 1
                    break
            else:
                reps.append(cand)
                counts.append(1)
    return list(zip(reps, counts))


class TestHolomorphOrbits:
    @pytest.mark.parametrize("order", range(1, 12))
    def test_census_equals_pairwise_reference(self, order):
        for arity in (3, 4, 5):
            entries = census(order, arity)
            found = [(e.representative, e.multiplicity) for e in entries]
            assert found == reference_pairwise_census(order, arity), (order, arity)

    @pytest.mark.parametrize("order", range(1, 12))
    def test_orbit_stabilizer(self, order):
        """|orbit| · |Aut(der(G, θ, b))| = |Hol(G)| = m · |Aut(G)| for every
        class, Aut(der(G, θ, b)) counted as the bijective split maps."""
        for base in groups_of_order(order):
            holomorph = order * len(automorphisms(base))
            for arity in (3, 4, 5):
                for rep, size in simplicity._twist_classes(base, arity, DEFAULT_CAPS):
                    stabilizer = len(list(_split_maps(rep, rep, bijective=True)))
                    assert size * stabilizer == holomorph, (rep, size, stabilizer)

    def test_transport_is_the_transported_operation(self, corpus):
        """For every twist of order at most 8 and every generator ψ = R_g ∘ φ,
        the array transport, given the twist as a stack of one, equals the
        twist read off f′ = ψ∘f∘(ψ⁻¹)ⁿ: b′ = f′(0,...,0) and
        θ′(x) = f′(0,x,0,...,0)·b′⁻¹."""
        for p in corpus:
            base, n = p.presentation.base, p.arity
            twist = (p.presentation.theta.perm, p.presentation.b)
            for phi, g in simplicity._hol_generators(base):
                psi = [base.mul(phi[x], g) for x in range(p.order)]
                back = inverse_perm(psi)

                def moved(*args):
                    return psi[p.eval([back[y] for y in args])]

                b = moved(*[0] * n)
                theta = tuple(
                    base.mul(moved(0, x, *[0] * (n - 2)), base.inv(b))
                    for x in range(p.order)
                )
                theta2, b2 = simplicity._transport(
                    base, n, np.asarray(phi), g, np.asarray([twist[0]]), np.zeros(1, int),
                    np.asarray([twist[1]]),
                )
                assert (tuple(theta2[0].tolist()), int(b2[0])) == (theta, b)
                assert transport_twist(base, n, phi, g, twist) == (theta, b)

    def test_derived_census_is_not_pairwise(self, monkeypatch):
        """Both modes class by orbits alone: with the reports stubbed (they
        read the derived view by design), neither an isomorphism test nor
        the view is needed."""
        def refuse(*args, **kwargs):
            raise AssertionError("isomorphism test or view called")

        cells = [(4, 3, "derived"), (2, 3, "exhaustive"), (2, 2, "exhaustive")]
        expected = [[e.multiplicity for e in census(*cell)] for cell in cells]
        monkeypatch.setattr(morphisms, "are_isomorphic", refuse)
        monkeypatch.setattr(PolyadicGroup, "view", property(refuse))
        monkeypatch.setattr(simplicity, "simplicity_report", lambda p, caps: None)
        got = [[e.multiplicity for e in census(*cell)] for cell in cells]
        assert got == expected
        assert [len(e) for e in got] == [7, 2, 1]

    def test_orbit_outside_the_valid_twists_is_refused(self, monkeypatch):
        # der(Z3, id, 1) lies in the orbit of der(Z3, id, 0); the shared
        # gate fails it
        gates = polyadic._twist_gates

        def fail_second(base, perms, arity):
            out = gates(base, perms, arity)
            if base.order == 3:
                out[(perms == np.arange(3)).all(axis=1), 1, 0] = True
            return out

        monkeypatch.setattr(polyadic, "_twist_gates", fail_second)
        assert len(all_derived(catalog_group("Z3"), 3)) == 3
        with pytest.raises(InternalContradiction, match=r"twist \(\(0, 1, 2\), 1\)"):
            census(3, 3)

    @pytest.mark.parametrize("order", range(1, 12))
    def test_array_classes_equal_the_scalar_walk(self, order):
        for base in groups_of_order(order):
            for arity in range(2, 9):
                got = simplicity._twist_classes(base, arity, DEFAULT_CAPS)
                assert got == reference_twist_classes(base, arity), (base, arity)

    @pytest.mark.parametrize("order, arity, total", [(4, 4, 2), (9, 5, 6), (8, 8, 48)])
    def test_uas_multiplicities(self, order, arity, total):
        """The θ-simple twists of Z_p^k are those whose θ has an irreducible
        characteristic polynomial and θ^(n−1) = 1: 2, 6 and 48 on these
        cells, each class cross-checked by both routes."""
        entries = census(order, arity)
        assert all(e.report.method == "both" for e in entries)
        assert sum(e.multiplicity for e in entries if e.report.uas) == total

    def test_relabelled_table_outside_the_valid_tables_is_refused(self, monkeypatch):
        # the two tables of Z2 (identity 0 and identity 1) are one orbit of
        # (0 1); reject the second
        check = simplicity.verify_table_axioms

        def reject_second(arity, order, flat, caps):
            report = check(arity, order, flat, caps=caps)
            return replace(report, solvable=report.solvable and flat != (1, 0, 0, 1))

        monkeypatch.setattr(simplicity, "verify_table_axioms", reject_second)
        with pytest.raises(InternalContradiction):
            census(2, 2, "exhaustive")
