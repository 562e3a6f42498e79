"""The verify() pipeline: Table 1 routing."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import UndecidableFragment, verify
from repro.core import DCDS, DCDSBuilder, ServiceSemantics
from repro.gallery import (
    example_41, example_42, example_43, example_52, student_registry)
from repro.gallery.student import (
    property_eventual_graduation_mu_la, property_eventual_graduation_mu_lp,
    property_no_student_while_idle)
from repro.mucalc import Fragment, parse_mu
from repro.relational.vector import numpy_available


class TestDeterministicRoute:
    def test_ex41_reachability(self, ex41):
        report = verify(ex41, parse_mu("mu Z. (R('a') | <-> Z)"))
        assert report.holds
        assert report.route == "det-abstraction"
        assert report.static_condition == "weakly-acyclic"
        assert report.abstraction_stats["states"] == 10

    def test_ex42_constraint_narrows(self, ex42):
        # In Example 4.2 f(a)=a is forced, so Q(a, a) recurs forever on one
        # branch: EG Q(a,a).
        report = verify(
            ex42, parse_mu("nu X. (Q('a', 'a') & (<-> X | [-] false))"))
        assert report.holds

    def test_failing_property(self, ex41):
        report = verify(ex41, parse_mu("nu X. (R('a') & [-] X)"))
        assert not report.holds  # R does not hold initially

    def test_full_muL_rejected(self, ex41):
        formula = parse_mu("E x. mu Z. (R(x) | <-> Z)")
        with pytest.raises(UndecidableFragment) as excinfo:
            verify(ex41, formula)
        assert "4.5" in excinfo.value.theorem

    def test_non_weakly_acyclic_rejected(self, ex43_det):
        with pytest.raises(UndecidableFragment) as excinfo:
            verify(ex43_det, parse_mu("mu Z. (Q('a') | <-> Z)"))
        assert "4.6" in excinfo.value.theorem

    def test_force_overrides_static_check(self, ex43_det):
        # Forcing on a run-unbounded system still diverges (fuse).
        from repro.errors import AbstractionDiverged

        with pytest.raises(AbstractionDiverged):
            verify(ex43_det, parse_mu("mu Z. (Q('a') | <-> Z)"),
                   force=True, max_states=200)

    def test_force_succeeds_on_actually_bounded(self):
        # A not-weakly-acyclic but run-bounded DCDS: the guard blocks the
        # second application, so the f-chain never grows.
        builder = DCDSBuilder(name="bounded-but-cyclic")
        builder.schema("R/1", "Q/1", "Done/0")
        builder.initial("R('a')")
        builder.service("f/1")
        builder.action("go", "R(x) ~> Q(f(x)), Done()",
                       "Q(x) ~> R(x)")
        builder.rule("~(Done())", "go")
        dcds = builder.build()
        with pytest.raises(UndecidableFragment):
            verify(dcds, parse_mu("mu Z. ((E x. live(x) & Q(x)) | <-> Z)"))
        report = verify(dcds,
                        parse_mu("mu Z. ((E x. live(x) & Q(x)) | <-> Z)"),
                        force=True)
        assert report.static_condition == "forced"
        assert report.holds


class TestNoSignatureLookup:
    """verify() without a checkpoint never computes spec_signature(): it
    sorts every initial fact, and only a checkpoint header needs it."""

    @pytest.mark.parametrize("build,formula,route", [
        (example_41, lambda: parse_mu("mu Z. (R('a') | <-> Z)"),
         "det-abstraction"),
        (student_registry, property_eventual_graduation_mu_lp, "rcycl"),
    ], ids=["det", "rcycl"])
    def test_verify_does_not_read_the_signature(self, monkeypatch, build,
                                                formula, route):
        def refuse(self):
            raise AssertionError("verify() read spec_signature()")

        monkeypatch.setattr(DCDS, "spec_signature", refuse)
        report = verify(build(), formula())
        assert report.route == route
        assert report.holds


def _run_isolated(script: str, env_drop=()) -> str:
    """Run ``script`` in a fresh interpreter that cannot import networkx
    (``sys.modules["networkx"] = None`` makes every import of it raise)."""
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = {key: value for key, value in os.environ.items()
           if key not in env_drop}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    prelude = 'import sys\nsys.modules["networkx"] = None\n'
    result = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestDependencyFreeCore:
    """The core imports and verifies with networkx unimportable, and the
    vectorised joins never pull in ``numpy.ma``."""

    def test_verify_without_networkx(self):
        out = _run_isolated("""
            import repro, repro.pipeline
            from repro import verify
            from repro.gallery.library import (
                library_system, property_loans_returnable)
            from repro.mucalc import parse_mu
            from repro.workloads import warehouse_dcds

            det = verify(warehouse_dcds(1, payload=8), parse_mu(
                "nu X. ((A t. live(t) & At(t, 'c4') -> At(t, 'c3')) "
                "& [-] X)"))
            nondet = verify(library_system(2, 1), property_loans_returnable())
            print(det.route, det.holds, det.static_condition)
            print(nondet.route, nondet.holds, nondet.static_condition)
        """)
        assert out.split("\n")[:2] == [
            "det-abstraction True weakly-acyclic", "rcycl True gr-acyclic"]

    def test_vector_joins_do_not_import_numpy_ma(self):
        if not numpy_available():
            pytest.skip("numpy is not installed")
        out = _run_isolated("""
            import sys
            from repro import verify
            from repro.mucalc import parse_mu
            from repro.relational import vector
            from repro.workloads import lattice_dcds

            calls = []
            original = vector._Executor._atom_bindings

            def counted(self, *args):
                calls.append(1)
                return original(self, *args)

            vector._Executor._atom_bindings = counted
            report = verify(lattice_dcds(1), parse_mu(
                "mu X. ((E x. live(x) & Tri(x) & Far(x)) | <-> X)"))
            print(report.holds, len(calls) > 0, "numpy.ma" in sys.modules)
        """, env_drop=("REPRO_NO_KERNEL", "REPRO_NO_VECTOR"))
        assert out.split() == ["True", "True", "False"]


class TestNondeterministicRoute:
    def test_muLP_accepted(self, students):
        report = verify(students, property_eventual_graduation_mu_lp())
        assert report.holds
        assert report.route == "rcycl"
        assert report.fragment is Fragment.MU_LP

    def test_muLA_rejected(self, students):
        with pytest.raises(UndecidableFragment) as excinfo:
            verify(students, property_eventual_graduation_mu_la())
        assert "5.2" in excinfo.value.theorem

    def test_muLA_forced(self, students):
        # Forcing evaluates the µLA formula over the RCYCL system; for this
        # system the verdict is still True (though no longer certified).
        report = verify(students, property_eventual_graduation_mu_la(),
                        force=True)
        assert report.holds

    def test_safety(self, students):
        report = verify(students, property_no_student_while_idle())
        assert report.holds

    def test_gr_acyclic_route(self, ex43_nondet):
        report = verify(ex43_nondet, parse_mu("mu Z. (Q('a') | <-> Z)"))
        assert report.static_condition == "gr-acyclic"
        assert report.holds

    def test_not_gr_rejected(self, ex52):
        with pytest.raises(UndecidableFragment) as excinfo:
            verify(ex52, parse_mu("mu Z. (Q('a') | <-> Z)"))
        assert "5.5" in excinfo.value.theorem


class TestMixedRoute:
    def test_mixed_semantics_via_rewrite(self):
        """One deterministic and one nondeterministic service (Section 6)."""
        builder = DCDSBuilder(name="mixed")
        builder.schema("R/1", "S/2")
        builder.initial("R('a')")
        builder.service("det_f/1", deterministic=True)
        builder.service("free_g/1", deterministic=False)
        builder.action("go", "R(x) ~> R(x), S(det_f(x), free_g(x))")
        builder.rule("true", "go")
        dcds = builder.build(ServiceSemantics.NONDETERMINISTIC)
        assert dcds.has_mixed_semantics()

        # The Theorem 6.1 memory relation is copied forever, which the
        # syntactic GR analysis conservatively flags as a recall cycle —
        # so certification fails even though this system is state-bounded
        # (det_f is only ever called on the constant 'a').
        formula = parse_mu(
            "mu Z. ((E x, y. live(x) & live(y) & S(x, y)) | <-> Z)")
        with pytest.raises(UndecidableFragment):
            verify(dcds, formula)
        report = verify(dcds, formula, max_states=4000, force=True)
        assert report.holds
        assert report.route.startswith("mixed->")
        assert report.static_condition == "forced"

    def test_report_repr(self, ex41):
        report = verify(ex41, parse_mu("mu Z. (R('a') | <-> Z)"))
        assert "HOLDS" in repr(report)
        assert "example41" in repr(report)


class TestCheckingStats:
    def test_compiled_stats_surface(self, ex41):
        report = verify(ex41, parse_mu("mu Z. (R('a') | <-> Z)"))
        stats = report.checking_stats
        assert stats["mode"] == "compiled"
        assert stats["iterations"] >= 1
        assert stats["alternation_depth"] == 1
        assert "peak_extension" in stats and "resets" in stats


class TestOnTheFlyRoute:
    def test_reachability_early_stop(self, ex41):
        formula = parse_mu("mu Z. (R('a') | <-> Z)")
        offline = verify(ex41, formula)
        fused = verify(ex41, formula, on_the_fly=True)
        assert fused.holds == offline.holds
        assert fused.checking_stats["mode"] == "on-the-fly"
        assert fused.checking_stats["early_stop"] == "witness-found"
        # The witness is found before the full 10-state space is built.
        assert fused.abstraction_stats["states"] \
            <= offline.abstraction_stats["states"]

    def test_invariant_violation_early_stop(self, ex41):
        # R does not hold initially: AG R refuted on the first state.
        formula = parse_mu("nu X. (R('a') & [-] X)")
        fused = verify(ex41, formula, on_the_fly=True)
        assert not fused.holds
        assert fused.checking_stats["early_stop"] == "violation-found"
        assert fused.checking_stats["states_checked"] == 1
        assert fused.abstraction_stats["states"] == 1

    def test_invariant_that_holds_explores_fully(self, ex41):
        # Some value is always live (true on all 10 abstract states).
        formula = parse_mu("nu X. ((E x. live(x)) & [-] X)")
        offline = verify(ex41, formula)
        fused = verify(ex41, formula, on_the_fly=True)
        assert fused.holds == offline.holds
        assert fused.checking_stats["early_stop"] is None
        assert fused.abstraction_stats["states"] \
            == offline.abstraction_stats["states"]

    def test_unrecognized_shape_falls_back_to_compiled(self, ex41):
        formula = parse_mu("nu X. mu Y. ((R('a') & <-> X) | <-> Y)")
        fused = verify(ex41, formula, on_the_fly=True)
        offline = verify(ex41, formula)
        assert fused.holds == offline.holds
        assert fused.checking_stats["mode"] == "compiled"

    def test_nondet_route_on_the_fly(self, students):
        from repro.gallery.student import property_no_student_while_idle

        formula = property_no_student_while_idle()
        offline = verify(students, formula)
        fused = verify(students, formula, on_the_fly=True)
        assert fused.holds == offline.holds
        assert fused.checking_stats["mode"] == "on-the-fly"
        assert fused.route == "rcycl"
