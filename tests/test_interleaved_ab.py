"""The sign-test interval that demos/interleaved_ab.py reports around its
median change/base time ratio."""
import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

DEMO = Path(__file__).resolve().parents[1] / "demos" / "interleaved_ab.py"


@pytest.fixture(scope="module")
def interleaved_ab():
    # The demo pins BLAS to one thread through the environment on import;
    # the suite's environment is kept as it was.
    spec = importlib.util.spec_from_file_location("interleaved_ab", DEMO)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n,low,high", [
    # P(Binomial(20, 1/2) <= 5) = 0.0207 <= 0.025 < P(<= 6) = 0.0577.
    (20, 6, 15),
    # P(Binomial(30, 1/2) <= 9) = 0.0214 <= 0.025 < P(<= 10) = 0.0494.
    (30, 10, 21),
])
def test_the_interval_is_the_binomial_order_statistics(interleaved_ab, n, low, high):
    values = np.random.default_rng(n).permutation(np.arange(1.0, n + 1.0)).tolist()
    assert interleaved_ab.sign_test_interval(values) == (low, high)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_too_few_values_give_the_whole_range(interleaved_ab, n):
    # With n <= 5 even P(Binomial(n, 1/2) = 0) = 2^-n exceeds 0.025.
    values = [3.0 * v for v in range(n, 0, -1)]
    assert interleaved_ab.sign_test_interval(values) == (min(values), max(values))
