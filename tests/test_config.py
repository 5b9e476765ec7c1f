import pytest

from pglab import polyadic
from pglab.catalog import catalog_group
from pglab.config import Caps, caps_from_env, cross_check
from pglab.congruence import (
    congruence_from_classes,
    congruences,
    congruences_bruteforce,
    enumerate_normal_polyadic,
    is_normal_congruence,
    kernel_class,
    lattice_ops,
    quotient_by_congruence,
    quotient_polyadic,
)
from pglab.errors import (
    CapExceeded,
    CostCapExceeded,
    MethodDisagreement,
    OrderCapExceeded,
    ValidationError,
)
from pglab.groups import Automorphism, automorphisms, make_group
from pglab.morphisms import enumerate_homs, is_polyadic_hom
from pglab.polyadic import (
    as_table,
    derive,
    from_table,
    hg_anchor0,
    verify_table_axioms,
)
from pglab.simplicity import census, simplicity_report
from pglab.substructures import enumerate_polyadic_subgroups


class TestCrossCheck:
    def run(self, strategy, feasible, theorem=1, oracle=1):
        calls = []

        def route(name, value):
            def thunk():
                calls.append(name)
                return value
            return thunk

        answer = cross_check(
            "test", strategy, route("theorem", theorem), route("oracle", oracle), feasible
        )
        return answer, calls

    @pytest.mark.parametrize("feasible", [False, True])
    def test_theorem_never_calls_oracle(self, feasible):
        assert self.run("theorem", feasible, oracle=2) == (1, ["theorem"])

    @pytest.mark.parametrize("feasible", [False, True])
    def test_oracle_never_calls_theorem(self, feasible):
        assert self.run("oracle", feasible, theorem=2) == (1, ["oracle"])

    def test_auto_runs_oracle_only_when_feasible(self):
        assert self.run("auto", False, oracle=2) == (1, ["theorem"])
        assert self.run("auto", True) == (1, ["theorem", "oracle"])

    def test_planted_disagreement(self):
        with pytest.raises(MethodDisagreement):
            self.run("auto", True, theorem=[(0,)], oracle=[(0,), (0, 1)])

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            self.run("bogus", True)


class TestUnknownStrategy:
    def test_entry_points_refuse(self, structs):
        p = structs["T3"]
        calls = [
            lambda: enumerate_polyadic_subgroups(p, strategy="bogus"),
            lambda: enumerate_normal_polyadic(p, strategy="bogus"),
            lambda: enumerate_homs(p, p, strategy="bogus"),
            lambda: simplicity_report(p, method="bogus"),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()


class TestCaps:
    def test_negative_cap_refused(self):
        with pytest.raises(ValidationError):
            Caps(order_cap=-1)

    @pytest.mark.parametrize("field,value", [
        ("axiom_cost_cap", 1e8), ("order_cap", "16"), ("hom_oracle_cap", None),
        ("axiom_cost_cap", True), ("order_cap", 1.5),
    ])
    def test_non_integer_cap_refused(self, field, value):
        with pytest.raises(ValidationError, match=field):
            Caps(**{field: value})

    def test_env_must_be_integer(self):
        with pytest.raises(ValidationError):
            caps_from_env(environ={"PGLAB_ORDER_CAP": "abc"})
        assert caps_from_env(environ={"PGLAB_ORDER_CAP": "5"}).order_cap == 5

    @pytest.mark.parametrize(
        "cap,call",
        [
            ("order_cap", lambda s, c: make_group(catalog_group("Z3").table, caps=c)),
            # arity and order caps refuse a structure when it is built
            ("arity_cap",
             lambda s, c: derive(catalog_group("Z4"), Automorphism.identity(4), 0, 3, c)),
            ("order_cap", lambda s, c: from_table(3, 2, as_table(s["T2"]).presentation.flat, c)),
            ("order_cap", lambda s, c: automorphisms(catalog_group("Z3"), c)),
            ("axiom_cost_cap", lambda s, c: verify_table_axioms(3, 2, [0] * 8, caps=c)),
            ("axiom_cost_cap", lambda s, c: enumerate_polyadic_subgroups(s["T4"], "oracle", c)),
            ("axiom_cost_cap", lambda s, c: is_polyadic_hom((0, 1, 2), s["T3"], s["T3"], c)),
            ("axiom_cost_cap", lambda s, c: congruences_bruteforce(s["T4"], c)),
            ("axiom_cost_cap", lambda s, c: census(2, 3, "exhaustive", c)),
            ("hom_oracle_cap", lambda s, c: enumerate_homs(s["T3"], s["T3"], "oracle", c)),
            ("axiom_cost_cap", lambda s, c: as_table(s["T3"], c)),
            ("axiom_cost_cap", lambda s, c: quotient_polyadic(s["T3"], [0], c)),
            ("axiom_cost_cap", lambda s, c: from_table(3, 2, as_table(s["T2"]).presentation.flat, c)),
        ],
    )
    def test_refusal_names_its_cap(self, structs, cap, call):
        with pytest.raises(CapExceeded) as exc:
            call(structs, Caps(**{cap: 1}))
        assert exc.value.cap == cap
        # the requirement, or "too many" when it is not counted, and the cap field
        required = exc.value.required
        assert f" needs {'too many' if required is None else required} " in str(exc.value)
        assert str(exc.value).endswith(f"; {cap} is 1")

    def test_quotients_do_not_check_the_caps_again(self):
        """der(Z18, id, 0, 3) built under order_cap 18 has order-18
        quotients, which the default caps do not refuse; its table form's
        quotient oracle reads its 18-value rows unpacked."""
        z18 = make_group([[(i + j) % 18 for j in range(18)] for i in range(18)],
                         caps=Caps(order_cap=18))
        p = derive(z18, Automorphism.identity(18), 0, 3, Caps(order_cap=18))
        diagonal = congruence_from_classes(p, [[x] for x in range(18)])
        by_congruence = quotient_by_congruence(p, diagonal)
        assert by_congruence.order == 18
        assert by_congruence.flat_np.tobytes() == p.flat_np.tobytes()
        by_subgroup = quotient_polyadic(p, [0])
        assert by_subgroup.classes == tuple((x,) for x in range(18))
        assert by_subgroup.quotient.flat_np.tobytes() == p.flat_np.tobytes()
        assert quotient_polyadic(as_table(p), [0]) == by_subgroup


class TestCaches:
    def test_equal_structures_keep_their_own_answers(self):
        z3 = catalog_group("Z3")
        a, b = (derive(z3, Automorphism.identity(3), 0, 3) for _ in range(2))
        assert a == b and a is not b
        for enumerate_ in (
            enumerate_polyadic_subgroups, enumerate_normal_polyadic, congruences_bruteforce
        ):
            assert enumerate_(a)[0].ambient is a
            assert enumerate_(b)[0].ambient is b
        flat = as_table(a).presentation.flat
        t1, t2 = (from_table(3, 3, flat, name=name) for name in ("T1", "T2"))
        assert t1 == t2
        assert hg_anchor0(t1).group.name == "hg(T1)"
        assert hg_anchor0(t2).group.name == "hg(T2)"

    @pytest.mark.parametrize(
        "call, table, tight, error",
        [
            (lambda p, caps: automorphisms(p.presentation.base, caps), False,
             Caps(order_cap=2), OrderCapExceeded),
            # der(Z3, id, 0, 3): the oracles' 3·2^3 = 24-bit subset mask meets a cap of 23
            (congruences_bruteforce, False, Caps(axiom_cost_cap=23), CostCapExceeded),
            (lambda p, caps: enumerate_polyadic_subgroups(p, "oracle", caps), False,
             Caps(axiom_cost_cap=23), CostCapExceeded),
        ],
    )
    def test_caps_are_checked_before_the_cached_answer(self, call, table, tight, error):
        p = derive(catalog_group("Z3"), Automorphism.identity(3), 0, 3)
        if table:
            p = as_table(p)
        assert call(p, Caps())
        with pytest.raises(error):
            call(p, tight)

    def test_table_view_is_built_once(self, structs, monkeypatch):
        split, calls = polyadic.hosszu_gloskin, []

        def counted(*args, **kwargs):
            calls.append(args)
            return split(*args, **kwargs)

        monkeypatch.setattr(polyadic, "hosszu_gloskin", counted)
        p = as_table(structs["V4swap"])
        congs = congruences(p)
        assert enumerate_normal_polyadic(p)
        for r in congs:
            kernel_class(r)
            is_normal_congruence(r)
            for q in congs:
                lattice_ops(r, q)
        assert hg_anchor0(p) is p.view
        assert len(congs) == 3 and len(calls) == 1
