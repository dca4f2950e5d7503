"""The public API surface, as documented.

These tests execute the README/docs entry points verbatim-ish; if a
documented import or call signature changes, they fail before a user's
copy-paste does.
"""

import pytest


class TestTopLevelImports:
    def test_readme_imports(self):
        from repro import machines, catalog
        from repro.core import (
            generate_machine_description,
            WorkloadDescriptionGenerator,
            PandiaPredictor,
            enumerate_canonical,
            best_placement,
            rightsize,
            describe,
            CoSchedulePredictor,
            CoScheduledWorkload,
        )

        assert machines.get("X5-2").topology.n_hw_threads == 72
        assert len(catalog.names()) == 22

    def test_extension_imports(self):
        from repro.rack import (
            Rack,
            RackMachine,
            RackScheduler,
            Timeline,
            validate_schedule,
            validate_timeline,
        )
        from repro.rack import FleetOccupancy, Resident
        from repro.online import (
            ArrivalTrace,
            EventLoop,
            OnlineScheduler,
            PlacementPolicy,
            diurnal_trace,
            get_policy,
            policy_names,
            poisson_trace,
            replay_trace,
        )
        from repro.perf import parse_perf_stat, pinned_run_command
        from repro.fit import Observation, fit_workload_spec
        from repro.io import DescriptionStore, load_surrogate, save_surrogate
        from repro.baselines import os_packed_choice, regression_choice
        from repro.search import SurrogateStrategy
        from repro.surrogate import (
            FEATURE_NAMES,
            PlacementFeaturizer,
            SurrogateModel,
            train_surrogate,
        )

    def test_version(self):
        import repro

        assert repro.__version__


class TestReadmeQuickstartFlow:
    """The README's library example, on the fast machine."""

    def test_flow(self):
        from repro import machines, catalog
        from repro.core import (
            describe,
            WorkloadDescriptionGenerator,
            PandiaPredictor,
            enumerate_canonical,
            best_placement,
        )

        machine = machines.get("TESTBOX")
        md = describe(machine)
        gen = WorkloadDescriptionGenerator(machine, md)
        wd = gen.generate(catalog.get("EP"))

        predictor = PandiaPredictor(md)
        placements = enumerate_canonical(machine.topology, max_threads=8)
        best, prediction = best_placement(predictor, wd, placements)
        assert best.n_threads >= 1
        assert prediction.speedup > 1.0


class TestDocsApiSnippets:
    def test_explain_snippet(self):
        from repro import machines, catalog
        from repro.analysis.explain import explain
        from repro.core import describe, PandiaPredictor, WorkloadDescriptionGenerator
        from repro.core.sweep import spread_placement

        machine = machines.get("TESTBOX")
        md = describe(machine)
        wd = WorkloadDescriptionGenerator(machine, md).generate(catalog.get("Swim"))
        traced = PandiaPredictor(md).predict(
            wd, spread_placement(machine.topology, 8), keep_trace=True
        )
        assert "Amdahl ceiling" in explain(traced)

    def test_store_snippet(self, tmp_path):
        from repro import machines
        from repro.core import generate_machine_description
        from repro.io import DescriptionStore

        machine = machines.get("TESTBOX")
        store = DescriptionStore(tmp_path)
        md = store.get_or_measure(
            "TESTBOX", lambda: generate_machine_description(machine)
        )
        assert md.machine_name == "TESTBOX"
