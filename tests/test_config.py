import pytest

from pglab.config import Caps, caps_from_env, cross_check
from pglab.errors import MethodDisagreement, ValidationError
from pglab.morphisms import enumerate_homs
from pglab.simplicity import simplicity_report
from pglab.substructures import enumerate_normal_polyadic, enumerate_polyadic_subgroups


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

    def test_env_must_be_integer(self):
        with pytest.raises(ValidationError):
            caps_from_env(environ={"PGLAB_ORDER_CAP": "abc"})
        assert caps_from_env(environ={"PGLAB_ORDER_CAP": "5"}).order_cap == 5
