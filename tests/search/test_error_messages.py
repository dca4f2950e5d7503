"""Search-layer errors name the value that was rejected."""

import re
from types import SimpleNamespace

import pytest

from repro.errors import PredictionError, ReproError
from repro.search import (
    ExhaustiveStrategy,
    PredictionCache,
    SearchEngine,
    SurrogateStrategy,
)


class MachinelessPredictor:
    """A scalar predictor with no machine description."""

    def predict(self, workload, placement):
        raise AssertionError("never reached")


def _search_without_machine():
    engine = SearchEngine(MachinelessPredictor())
    engine.search(SimpleNamespace(name="w"), ExhaustiveStrategy())


@pytest.mark.parametrize(
    "make, error, named",
    [
        (_search_without_machine, PredictionError, "MachinelessPredictor"),
        (lambda: PredictionCache(-3), ReproError, "got -3"),
        (lambda: SurrogateStrategy(initial_k=0), PredictionError, "got 0"),
        (lambda: SurrogateStrategy(growth=0.5), PredictionError, "got 0.5"),
        (lambda: SurrogateStrategy(stable_rounds=-2), PredictionError, "got -2"),
    ],
    ids=["engine-topology", "cache-size", "initial_k", "growth", "stable_rounds"],
)
def test_error_names_the_bad_value(make, error, named):
    with pytest.raises(error, match=re.escape(named)):
        make()
