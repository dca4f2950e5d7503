import pytest

from perfbench.steady import apart_by


def test_apart_by_does_not_depend_on_which_set_ran_first():
    assert apart_by(1.885, 1.349) == apart_by(1.349, 1.885)
    assert apart_by(1.349, 1.885) == pytest.approx(1.885 / 1.349 - 1)
    assert apart_by(2.0, 2.0) == 0.0
