"""Unit tests for ResourceVector, and its agreement with the reference
implementation in ``tests/resources_reference.py``."""

import random

import pytest

from repro.model.resources import CPU, MEM, ResourceVector
from tests import resources_reference as reference


class TestConstruction:
    def test_from_kwargs(self):
        vec = ResourceVector(cpu=4, mem=8)
        assert vec[CPU] == 4
        assert vec[MEM] == 8

    def test_from_mapping(self):
        vec = ResourceVector({"cpu": 2})
        assert vec["cpu"] == 2

    def test_missing_resource_is_zero(self):
        assert ResourceVector(cpu=1)["gpu"] == 0

    def test_zero_entries_dropped(self):
        assert ResourceVector(cpu=0) == ResourceVector()
        assert len(ResourceVector(cpu=0, mem=1)) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ResourceVector(cpu=-1)

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            ResourceVector(cpu=1.5)

    def test_accepts_integral_float(self):
        assert ResourceVector(cpu=2.0)[CPU] == 2

    def test_immutable(self):
        vec = ResourceVector(cpu=1)
        with pytest.raises(AttributeError):
            vec.anything = 3


class TestEquality:
    def test_equal_ignores_order(self):
        assert ResourceVector(cpu=1, mem=2) == ResourceVector(mem=2, cpu=1)

    def test_equal_to_plain_mapping(self):
        assert ResourceVector(cpu=1) == {"cpu": 1}

    def test_hashable(self):
        assert hash(ResourceVector(cpu=1)) == hash(ResourceVector(cpu=1, mem=0))

    def test_repr_is_stable(self):
        assert repr(ResourceVector(mem=2, cpu=1)) == "ResourceVector(cpu=1, mem=2)"

    @pytest.mark.parametrize(
        "other",
        [{"cpu": -1}, {"cpu": 1.5}, {"cpu": "one"}, {"cpu": None}, {"cpu": float("inf")}],
    )
    def test_unequal_to_a_mapping_that_is_no_vector(self, other):
        assert not ResourceVector(cpu=1) == other
        assert ResourceVector(cpu=1) != other


class TestArithmetic:
    def test_add_unions_resources(self):
        total = ResourceVector(cpu=4, mem=8) + ResourceVector(cpu=1)
        assert total == ResourceVector(cpu=5, mem=8)

    def test_sub(self):
        assert ResourceVector(cpu=4) - ResourceVector(cpu=1) == ResourceVector(cpu=3)

    def test_sub_below_zero_raises(self):
        with pytest.raises(ValueError):
            ResourceVector(cpu=1) - ResourceVector(cpu=2)

    def test_saturating_sub_clamps(self):
        out = ResourceVector(cpu=1, mem=5).saturating_sub(ResourceVector(cpu=2, mem=3))
        assert out == ResourceVector(mem=2)

    def test_scalar_multiply(self):
        assert ResourceVector(cpu=2) * 3 == ResourceVector(cpu=6)
        assert 3 * ResourceVector(cpu=2) == ResourceVector(cpu=6)

    def test_multiply_requires_int(self):
        with pytest.raises(TypeError):
            ResourceVector(cpu=2) * 1.5

    def test_sum(self):
        vecs = [ResourceVector(cpu=1), ResourceVector(mem=2), ResourceVector(cpu=3)]
        assert ResourceVector.sum(vecs) == ResourceVector(cpu=4, mem=2)


class TestComparisons:
    def test_fits_in(self):
        assert ResourceVector(cpu=2, mem=4).fits_in(ResourceVector(cpu=2, mem=8))
        assert not ResourceVector(cpu=3).fits_in(ResourceVector(cpu=2, mem=8))

    def test_empty_fits_everywhere(self):
        assert ResourceVector().fits_in(ResourceVector())

    def test_is_zero(self):
        assert ResourceVector().is_zero()
        assert not ResourceVector(cpu=1).is_zero()


class TestDerived:
    def test_units_fitting_limited_by_scarcest(self):
        demand = ResourceVector(cpu=2, mem=4)
        capacity = ResourceVector(cpu=10, mem=8)
        assert demand.units_fitting(capacity) == 2  # mem limits

    def test_units_fitting_zero_vector_raises(self):
        with pytest.raises(ValueError):
            ResourceVector().units_fitting(ResourceVector(cpu=1))

    def test_dominant_share(self):
        demand = ResourceVector(cpu=5, mem=2)
        capacity = ResourceVector(cpu=10, mem=100)
        assert demand.dominant_share(capacity) == pytest.approx(0.5)

    def test_dominant_share_zero_capacity_raises(self):
        with pytest.raises(ValueError):
            ResourceVector(gpu=1).dominant_share(ResourceVector(cpu=10))

    def test_dominant_share_empty_is_zero(self):
        assert ResourceVector().dominant_share(ResourceVector(cpu=1)) == 0.0


def _outcome(call):
    """``("ok", value)`` or ``("raises", exception type)``; vectors of
    either implementation compare by their sorted pairs."""
    try:
        value = call()
    except Exception as error:  # the type is what is compared
        return "raises", type(error)
    if isinstance(value, (ResourceVector, reference.ResourceVector)):
        return "vector", tuple(value.items()), hash(value), repr(value)
    return "ok", value


class TestAgainstReference:
    """Random vectors through every public operation: the rewrite answers
    exactly as the ``Mapping``-view implementation it replaced."""

    NAMES = ("cpu", "gpu", "mem")

    def _amounts(self, rng: random.Random) -> dict:
        # Zeros and missing names on purpose; amounts stay small so that
        # differences go negative and capacities run out.
        return {
            name: rng.choice([0, 0, 1, 2, 3, 5, 8])
            for name in self.NAMES
            if rng.random() < 0.7
        }

    def _pairs(self, rng):
        """(new, reference, operand for new, operand for reference): an
        operand is a vector of the same implementation or a plain dict."""
        mine, theirs = self._amounts(rng), self._amounts(rng)
        new, ref = ResourceVector(mine), reference.ResourceVector(mine)
        if rng.random() < 0.5:
            return new, ref, dict(theirs), dict(theirs)
        return new, ref, ResourceVector(theirs), reference.ResourceVector(theirs)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_operation_matches(self, seed):
        rng = random.Random(seed)
        operations = {
            "add": lambda v, o: v + o,
            "sub": lambda v, o: v - o,
            "saturating_sub": lambda v, o: v.saturating_sub(o),
            "fits_in": lambda v, o: v.fits_in(o),
            "units_fitting": lambda v, o: v.units_fitting(o),
            "dominant_share": lambda v, o: v.dominant_share(o),
            "eq": lambda v, o: v == o,
            "ne": lambda v, o: v != o,
            "mul": lambda v, o: v * len(o),
            "rmul": lambda v, o: (len(o) - 1) * v,
            "mul_float": lambda v, o: v * 1.5,
            "copy": lambda v, o: type(v)(v),
            "kwargs": lambda v, o: type(v)(v, gpu=1),
            "sum": lambda v, o: type(v).sum([v, v, type(v)(o)]),
        }
        lookups = {
            "getitem": lambda v, n: v[n],
            "get": lambda v, n: v.get(n, -1),
            "contains": lambda v, n: n in v,
        }
        views = {
            "items": lambda v: list(v.items()),
            "keys": lambda v: list(v.keys()),
            "values": lambda v: list(v.values()),
            "iter": lambda v: list(v),
            "len": len,
            "bool": bool,
            "is_zero": lambda v: v.is_zero(),
            "repr": repr,
            "hash": hash,
            "dict": dict,
        }
        for _ in range(300):
            new, ref, new_other, ref_other = self._pairs(rng)
            for name, op in operations.items():
                assert _outcome(lambda: op(new, new_other)) == _outcome(
                    lambda: op(ref, ref_other)
                ), name
            for name, op in lookups.items():
                for key in (*self.NAMES, "disk"):
                    assert op(new, key) == op(ref, key), name
            for name, op in views.items():
                assert op(new) == op(ref), name
