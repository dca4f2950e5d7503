"""Tests for the prediction explainer."""

import pytest

from repro.analysis.explain import explain, penalty_breakdown, top_resources
from repro.core.placement import Placement
from repro.core.predictor import PandiaPredictor
from repro.errors import ReproError


@pytest.fixture(scope="module")
def traced_prediction(request):
    fig3_description = request.getfixturevalue("fig3_description")
    example_workload = request.getfixturevalue("example_workload")
    predictor = PandiaPredictor(fig3_description)
    placement = Placement(fig3_description.topology, (0, 4, 2))
    return predictor.predict(example_workload, placement, keep_trace=True)


class TestBreakdown:
    def test_penalties_sum_to_mean_slowdown(self, traced_prediction):
        breakdown = penalty_breakdown(traced_prediction)
        mean_slowdown = sum(traced_prediction.slowdowns) / 3
        assert 1.0 + breakdown.total == pytest.approx(mean_slowdown, rel=1e-6)

    def test_worked_example_dominated_by_resources(self, traced_prediction):
        breakdown = penalty_breakdown(traced_prediction)
        assert breakdown.resource > breakdown.communication
        assert breakdown.resource > breakdown.load_balance

    def test_requires_trace(self, request):
        fig3_description = request.getfixturevalue("fig3_description")
        example_workload = request.getfixturevalue("example_workload")
        predictor = PandiaPredictor(fig3_description)
        untraced = predictor.predict(
            example_workload, Placement(fig3_description.topology, (0, 4, 2))
        )
        with pytest.raises(ReproError, match="keep_trace"):
            penalty_breakdown(untraced)


class TestTopResources:
    def test_interconnect_tops_the_worked_example(self, traced_prediction):
        # At convergence the slowed threads demand ~80% of the link;
        # it remains the clear top resource.
        (key, ratio), *_ = top_resources(traced_prediction)
        assert key == ("link", (0, 1))
        assert ratio > 0.5

    def test_limit_respected(self, traced_prediction):
        assert len(top_resources(traced_prediction, limit=2)) == 2


class TestExplainText:
    def test_mentions_all_sections(self, traced_prediction):
        text = explain(traced_prediction)
        for token in (
            "Amdahl ceiling",
            "resource contention",
            "inter-socket communication",
            "load-balance coupling",
            "most utilised resources",
            "bottleneck: interconnect 0<->1",
        ):
            assert token in text, token

    def test_speedup_shown(self, traced_prediction):
        assert f"{traced_prediction.speedup:.2f}x" in explain(traced_prediction)


class TestUntracedErrorsNameThePrediction:
    @pytest.fixture
    def untraced(self, request):
        fig3_description = request.getfixturevalue("fig3_description")
        example_workload = request.getfixturevalue("example_workload")
        return PandiaPredictor(fig3_description).predict(
            example_workload, Placement(fig3_description.topology, (0, 4, 2))
        )

    def test_penalty_breakdown_names_workload_and_machine(self, untraced):
        with pytest.raises(ReproError, match=r"keep_trace.*'example' on FIG3"):
            penalty_breakdown(untraced)

    def test_explain_names_workload_and_machine(self, untraced):
        with pytest.raises(ReproError, match=r"keep_trace.*'example' on FIG3"):
            explain(untraced)
