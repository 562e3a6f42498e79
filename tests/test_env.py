"""The consolidated environment kill switches (:mod:`repro.env`).

Pins the parsing contract the consuming modules rely on: a switch is on
exactly when its variable is a non-empty string (the value is never
interpreted — ``"0"`` counts as on), and every helper re-reads
``os.environ`` on each call so tests can flip switches between two builds
without reloading modules.
"""

from __future__ import annotations

import pytest

from repro import env

FLAG_HELPERS = [
    ("REPRO_NO_KERNEL", env.kernel_disabled),
    ("REPRO_NO_VECTOR", env.vector_disabled),
    ("REPRO_NO_BATCH", env.batch_disabled),
    ("REPRO_NO_WITNESS", env.witness_disabled),
]


@pytest.mark.parametrize("variable,helper", FLAG_HELPERS,
                         ids=[name for name, _ in FLAG_HELPERS])
class TestFlagParsing:
    def test_unset_is_off(self, variable, helper, monkeypatch):
        monkeypatch.delenv(variable, raising=False)
        assert helper() is False

    def test_empty_is_off(self, variable, helper, monkeypatch):
        monkeypatch.setenv(variable, "")
        assert helper() is False

    @pytest.mark.parametrize("value", ["1", "0", "yes", "off", " "])
    def test_any_nonempty_value_is_on(self, variable, helper, monkeypatch,
                                      value):
        # The value is never interpreted: "0" and "off" still switch on.
        monkeypatch.setenv(variable, value)
        assert helper() is True

    def test_read_per_call(self, variable, helper, monkeypatch):
        # No import-time caching: the same helper observes a flip.
        monkeypatch.delenv(variable, raising=False)
        assert helper() is False
        monkeypatch.setenv(variable, "1")
        assert helper() is True
        monkeypatch.delenv(variable)
        assert helper() is False


class TestFaultsSpec:
    def test_unset_is_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert env.faults_spec() == ""

    def test_value_passes_through_unvalidated(self, monkeypatch):
        # Validation belongs to FaultPlan.parse, not the env reader.
        monkeypatch.setenv("REPRO_FAULTS", "kill:0@2,seed:7")
        assert env.faults_spec() == "kill:0@2,seed:7"
        monkeypatch.setenv("REPRO_FAULTS", "not a spec")
        assert env.faults_spec() == "not a spec"

    def test_read_per_call(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert env.faults_spec() == ""
        monkeypatch.setenv("REPRO_FAULTS", "oom:*@1")
        assert env.faults_spec() == "oom:*@1"


class TestMemoryBudgetDefault:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
        assert env.memory_budget_default() is None

    def test_empty_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "")
        assert env.memory_budget_default() is None

    def test_plain_bytes(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1048576")
        assert env.memory_budget_default() == 1 << 20

    @pytest.mark.parametrize("raw,expected", [
        ("64k", 64 << 10), ("64K", 64 << 10),
        ("8m", 8 << 20), ("2G", 2 << 30),
    ])
    def test_binary_suffixes(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", raw)
        assert env.memory_budget_default() == expected

    def test_garbage_raises(self, monkeypatch):
        # Unlike the boolean switches the value is interpreted; a typo
        # must not silently run unbounded.
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "lots")
        with pytest.raises(ValueError):
            env.memory_budget_default()

    def test_read_per_call(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
        assert env.memory_budget_default() is None
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "4m")
        assert env.memory_budget_default() == 4 << 20


class TestSymmetryDefault:
    def test_unset_is_exact(self, monkeypatch):
        monkeypatch.delenv("REPRO_SYMMETRY", raising=False)
        assert env.symmetry_default() == "exact"

    def test_empty_is_exact(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYMMETRY", "")
        assert env.symmetry_default() == "exact"

    def test_value_passes_through_unvalidated(self, monkeypatch):
        # Validation belongs to resolve_symmetry, not the env reader.
        monkeypatch.setenv("REPRO_SYMMETRY", "quotient")
        assert env.symmetry_default() == "quotient"
        monkeypatch.setenv("REPRO_SYMMETRY", "bogus")
        assert env.symmetry_default() == "bogus"
