"""Every callable the benchmark tracer wraps still exists where it looks.

``perfbench/tracer.py`` patches each name in ``BOUNDARIES``: ``mod.func``
as an attribute of ``monoconv.mod``, ``mod.Class.method`` as an entry of
the class's own ``__dict__``.  A refactor that moves or renames one of
them would otherwise show up only as a failed benchmark run.  The cfree
sweep must also pass through its two per-word boundaries once per word,
and every conversion between moments and K-transform through the one
series division, ``TruncatedSeries.reciprocal``; a convolution is one such
conversion and one composition.  Every right-hand-side evaluation of the
disk integrator goes through a generator's ``vector_field_at``, so the
benchmark's ``*.vector_field_at.calls`` count the integrator's work.
"""

import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from monoconv import cfree, semigroup
from monoconv.branching import BranchingGenerator
from monoconv.convolution import affine_mixture_convolve, monotone_convolve
from monoconv.generator import HerglotzGenerator
from monoconv.measure import CircleMeasure, k_transform, moments_from_k
from monoconv.series import TruncatedSeries

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("dotted", _boundaries())
def test_tracer_boundary_resolves(dotted):
    module_name, *attrs = dotted.split(".")
    module = importlib.import_module(f"monoconv.{module_name}")
    if len(attrs) == 1:
        target = getattr(module, attrs[0])
    else:
        target = vars(getattr(module, attrs[0]))[attrs[1]]
    assert inspect.isfunction(target)


def test_sweep_calls_each_per_word_boundary_once_per_word(monkeypatch):
    # the tracer times the sweep's words through these two names; a sweep
    # that bypassed them would leave its per-layer numbers empty
    calls = {"eval": 0, "monotone_eval": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(cfree.CFreeEvaluator, "eval", counting("eval", cfree.CFreeEvaluator.eval))
    monkeypatch.setattr(cfree, "monotone_eval", counting("monotone_eval", cfree.monotone_eval))
    phi1 = cfree.MomentFunctional([Fraction(k % 5 - 2, k % 3 + 1) for k in range(18)])
    phi2 = cfree.MomentFunctional([Fraction(k % 7 - 3, k % 4 + 1) for k in range(18)])
    defect, count = cfree.monotone_specialization_defect(phi1, phi2, max_len=6, max_power=3)
    assert (defect, count) == (0, 2184)
    assert calls == {"eval": 2184, "monotone_eval": 2184}


def test_conversions_divide_once_through_reciprocal(monkeypatch):
    # (1 + psi)(1 - K) = 1: each conversion is one reciprocal and no product
    # of two series, and the traced reciprocal boundary sees every one
    calls = {"reciprocal": 0, "compose": 0, "series_product": 0}
    reciprocal, compose, mul = TruncatedSeries.reciprocal, TruncatedSeries.compose, TruncatedSeries.__mul__

    def counted_reciprocal(self):
        calls["reciprocal"] += 1
        return reciprocal(self)

    def counted_compose(self, inner):
        calls["compose"] += 1
        return compose(self, inner)

    def counted_mul(self, other):
        calls["series_product"] += isinstance(other, TruncatedSeries)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "reciprocal", counted_reciprocal)
    monkeypatch.setattr(TruncatedSeries, "compose", counted_compose)
    monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
    monkeypatch.setattr(TruncatedSeries, "__rmul__", counted_mul)
    mu = CircleMeasure.from_atoms([0.5, 2.0, 4.0], [0.5, 0.3, 0.2])
    nu = CircleMeasure.from_atoms([1.0, 3.0], [0.6, 0.4])

    k = k_transform(nu, 16)
    assert calls == {"reciprocal": 1, "compose": 0, "series_product": 0}
    moments_from_k(k, 16)
    assert calls == {"reciprocal": 2, "compose": 0, "series_product": 0}
    affine_mixture_convolve(mu, nu, 16)  # one for K_nu, then one per atom of mu
    assert calls == {"reciprocal": 2 + 1 + 3, "compose": 0, "series_product": 0}
    monotone_convolve(mu, nu, 16)  # psi_mu o K_nu: one for K_nu, one composition
    assert calls == {"reciprocal": 6 + 1, "compose": 1, "series_product": 0}


def test_every_rhs_evaluation_goes_through_vector_field_at(monkeypatch):
    # the tracer patches vector_field_at on the generator classes; count
    # those calls against the calls the integrator makes to its field
    calls = {"class": 0, "integrator": 0}

    def counted_method(method):
        def counted(self, z):
            calls["class"] += 1
            return method(self, z)

        return counted

    for cls in (HerglotzGenerator, BranchingGenerator):
        monkeypatch.setattr(cls, "vector_field_at", counted_method(cls.vector_field_at))
    integrate = semigroup._integrate

    def counted_integrate(f, *args):
        def field(y):
            calls["integrator"] += 1
            return f(y)

        return integrate(field, *args)

    monkeypatch.setattr(semigroup, "_integrate", counted_integrate)
    ring = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
    for gen in (
        HerglotzGenerator(0.1, [(0.3, 0.5), (2.0, 0.3), (4.0, 0.2)]),
        HerglotzGenerator(0.0, [(0.0, 1.0)]),  # stages leave the disk near the atom
        BranchingGenerator.yule(1.0, 2),
    ):
        semigroup.evolve(gen, [1.9], [0.6 + 0.2j, 0.99])
        semigroup.evolve(gen, [0.7, 1.9], [0.99])  # one point: the field gets a complex
        semigroup.evolve_pointwise(gen, 1.2, -0.5 + 0.3j)
        semigroup.evolve(gen, [0.5, 1.5], ring)
        semigroup.first_moment_law(gen, 1.0)
        semigroup.semigroup_defect(gen, 0.4, 0.6, ring[:8])
    assert calls["class"] == calls["integrator"] > 0
