"""Tests for the query-form advisor."""

import pytest

from repro.core.advisor import advise, capability_table
from repro.core.compile import Strategy
from repro.workloads import CATALOGUE


def capability_map(name: str):
    system = CATALOGUE[name].system()
    return {cap.adornment: cap for cap in advise(system)}, system


class TestStableFormulas:
    def test_tc_every_bound_form_is_full(self):
        caps, system = capability_map("s1a")
        for adornment, cap in caps.items():
            if adornment:
                assert cap.pushdown == "full", adornment
            else:
                assert cap.pushdown == "none"
            assert cap.strategy is Strategy.STABLE

    def test_s3_symmetric_forms(self):
        caps, _ = capability_map("s3")
        assert all(cap.pushdown == "full"
                   for adornment, cap in caps.items() if adornment)


class TestQueryDependentFormulas:
    def test_s12_matches_paper_discussion(self):
        """dvv stabilises after one expansion; vvd is stable from the
        beginning (Example 14)."""
        caps, _ = capability_map("s12")
        dvv = caps[frozenset({0})]
        assert dvv.pushdown == "full"
        assert dvv.binding.prefix_length == 1
        vvd = caps[frozenset({2})]
        assert vvd.pushdown == "full"
        assert vvd.binding.prefix_length == 0

    def test_s9_bindings_always_die(self):
        caps, _ = capability_map("s9")
        assert all(cap.pushdown == "none" for cap in caps.values())

    def test_s11_dependent_but_full(self):
        """s11's P(d,v) determines everything from the second
        expansion — the advisor reports full pushdown."""
        caps, _ = capability_map("s11")
        assert caps[frozenset({0})].pushdown == "full"


class TestBoundedFormulas:
    @pytest.mark.parametrize("name", ["s8", "s10", "s5", "s6"])
    def test_bounded_always_finite(self, name):
        caps, _ = capability_map(name)
        assert all(cap.pushdown == "finite" for cap in caps.values())
        assert all(cap.strategy is Strategy.BOUNDED
                   for cap in caps.values())


class TestPartialPushdown:
    def test_mixed_formula_with_dying_and_living_bindings(self):
        """One position cycles (persists), the other feeds a class-C
        component (dies): binding partially persists."""
        from repro.datalog.parser import parse_system
        system = parse_system(
            "P(x, y, z) :- R(x, t), A(y, w), B(z, q), "
            "P(t, u1, v1).")
        rows = advise(system)
        by_adornment = {cap.adornment: cap for cap in rows}
        both = by_adornment[frozenset({0, 1})]
        assert both.pushdown == "partial"
        assert both.persistent == frozenset({0})


class TestTable:
    def test_forms_share_one_unfolding(self, monkeypatch):
        """All 128 forms of s7 read one system compilation: Theorem
        2/4's unfolding runs once, not once per form."""
        import repro.core.compile as compile_module
        real, calls = compile_module.to_stable, []
        monkeypatch.setattr(compile_module, "to_stable", lambda *args: (
            calls.append(args), real(*args))[1])
        table = capability_table(CATALOGUE["s7"].system())
        assert len(table.splitlines()) == 2 + 2 ** 7
        assert len(calls) == 1

    def test_table_shape(self):
        system = CATALOGUE["s12"].system()
        table = capability_table(system)
        lines = table.splitlines()
        assert len(lines) == 2 + 8  # header + rule + 2^3 forms
        assert "dvv → (ddv)*" in table
