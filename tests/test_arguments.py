from math import inf, nan

import numpy as np
import pytest

from monoconv.branching import OffspringLaw, law_k_transform, yule_flow
from monoconv.generator import HerglotzGenerator
from monoconv.measure import CircleMeasure
from monoconv.opmodel import k_operator, random_composition_suite, random_unitary
from monoconv.semigroup import flow_coefficients
from monoconv.series import TruncatedSeries

LAW = OffspringLaw((0.0, 0.5, 0.5))


@pytest.mark.parametrize("value", [2.5, -1])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: yule_flow(1.0, v, 0.5, 0.4), "offspring count"),
        (lambda v: LAW.phi_iterate(0.3, v), "iterate count"),
        (lambda v: flow_coefficients(HerglotzGenerator(0.0, [(0.0, 1.0)]), 1.0, v), "coefficient count"),
        (lambda v: CircleMeasure.haar(v), "moment order"),
        (lambda v: CircleMeasure.uniform_atoms(v), "atom count"),
        (lambda v: TruncatedSeries([1.0, 2.0, 3.0]).truncate(v), "truncation order"),
        (lambda v: TruncatedSeries.monomial(v, 4), "monomial degree"),
        (lambda v: TruncatedSeries.monomial(1, v), "truncation order"),
        (lambda v: law_k_transform(LAW, v), "truncation order"),
        (lambda v: random_unitary(np.random.default_rng(0), v), "dimension"),
        (lambda v: random_composition_suite(0, v), "case count"),
    ],
    ids=[
        "yule_flow",
        "phi_iterate",
        "flow_coefficients",
        "haar",
        "uniform_atoms",
        "truncate",
        "monomial-degree",
        "monomial-order",
        "law_k_transform",
        "random_unitary",
        "random_composition_suite",
    ],
)
def test_orders_and_counts_are_integers_at_least_their_bound(call, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d+, got {value!r}$"):
        call(value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [nan, inf, -inf])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: yule_flow(v, 2, 0.5, 0.4), "alpha"),
        (lambda v: k_operator(0.5 * np.eye(2), [v, 0.0], 0.3), "omega"),
    ],
    ids=["yule_flow", "k_operator"],
)
def test_non_finite_parameters_are_rejected_by_name(call, name, value):
    with pytest.raises(ValueError, match=name):
        call(value)
