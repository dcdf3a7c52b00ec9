"""The ``ResourceVector`` of ``repro.model.resources`` as it was built on
``collections.abc.Mapping``'s generic views: the reference its faster
rewrite is tested against (``tests/test_model_resources.py``).

Kept verbatim, including its one known defect: comparing it with a mapping
that is not a valid vector raises ``ValueError`` instead of returning False.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import Union

_Number = Union[int, float]


class ResourceVector(Mapping[str, int]):
    """An immutable, hashable vector of per-resource integer amounts.

    Missing resources are treated as zero, so vectors over different
    resource sets combine naturally.
    """

    __slots__ = ("_amounts",)

    def __init__(self, amounts: Mapping[str, _Number] | None = None, **kwargs: _Number):
        merged: dict[str, int] = {}
        for source in (amounts or {}), kwargs:
            for name, value in source.items():
                ivalue = int(value)
                if ivalue != value:
                    raise ValueError(
                        f"resource amounts must be integral, got {name}={value!r}"
                    )
                if ivalue < 0:
                    raise ValueError(
                        f"resource amounts must be non-negative, got {name}={value!r}"
                    )
                merged[name] = merged.get(name, 0) + ivalue
        # Drop explicit zeros so equality/hash ignore them.
        object.__setattr__(
            self, "_amounts", tuple(sorted((k, v) for k, v in merged.items() if v))
        )

    # -- Mapping protocol --------------------------------------------------

    def __getitem__(self, name: str) -> int:
        for key, value in self._amounts:
            if key == name:
                return value
        return 0

    def __iter__(self) -> Iterator[str]:
        return (key for key, _ in self._amounts)

    def __len__(self) -> int:
        return len(self._amounts)

    def __contains__(self, name: object) -> bool:
        return any(key == name for key, _ in self._amounts)

    # -- identity ----------------------------------------------------------

    def __hash__(self) -> int:
        return hash(self._amounts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResourceVector):
            return self._amounts == other._amounts
        if isinstance(other, Mapping):
            return self == ResourceVector(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self._amounts)
        return f"ResourceVector({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ResourceVector is immutable")

    # -- arithmetic ----------------------------------------------------------

    def _binary(self, other: Mapping[str, _Number], op) -> "ResourceVector":
        other_vec = other if isinstance(other, ResourceVector) else ResourceVector(other)
        names = set(self) | set(other_vec)
        return ResourceVector({n: op(self[n], other_vec[n]) for n in names})

    def __add__(self, other: Mapping[str, _Number]) -> "ResourceVector":
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other: Mapping[str, _Number]) -> "ResourceVector":
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, factor: int) -> "ResourceVector":
        if not isinstance(factor, int):
            raise TypeError("ResourceVector can only be scaled by an int")
        return ResourceVector({n: v * factor for n, v in self.items()})

    __rmul__ = __mul__

    def saturating_sub(self, other: Mapping[str, _Number]) -> "ResourceVector":
        """Elementwise ``max(self - other, 0)``."""
        other_vec = other if isinstance(other, ResourceVector) else ResourceVector(other)
        names = set(self) | set(other_vec)
        return ResourceVector({n: max(self[n] - other_vec[n], 0) for n in names})

    def elementwise_min(self, other: Mapping[str, _Number]) -> "ResourceVector":
        other_vec = other if isinstance(other, ResourceVector) else ResourceVector(other)
        names = set(self) | set(other_vec)
        return ResourceVector({n: min(self[n], other_vec[n]) for n in names})

    # -- comparisons ---------------------------------------------------------

    def fits_in(self, capacity: Mapping[str, _Number]) -> bool:
        """True if every amount is <= the corresponding amount of *capacity*."""
        cap = capacity if isinstance(capacity, ResourceVector) else ResourceVector(capacity)
        return all(value <= cap[name] for name, value in self.items())

    def is_zero(self) -> bool:
        return not self._amounts

    # -- derived quantities ----------------------------------------------------

    def units_fitting(self, capacity: Mapping[str, _Number]) -> int:
        """How many copies of this vector fit in *capacity* simultaneously.

        The limiting resource decides (``min_r floor(C_r / self_r)``).  A zero
        demand vector fits arbitrarily often; callers must bound the result
        by their own task counts.

        Raises :class:`ValueError` on a zero vector to avoid silent infinities.
        """
        if self.is_zero():
            raise ValueError("units_fitting is undefined for a zero demand vector")
        cap = capacity if isinstance(capacity, ResourceVector) else ResourceVector(capacity)
        return min(cap[name] // value for name, value in self.items())

    def dominant_share(self, capacity: Mapping[str, _Number]) -> float:
        """DRF-style dominant share: ``max_r self_r / C_r`` (0.0 for empty)."""
        cap = capacity if isinstance(capacity, ResourceVector) else ResourceVector(capacity)
        shares = []
        for name, value in self.items():
            total = cap[name]
            if total <= 0:
                raise ValueError(f"capacity for {name!r} is zero but demand is {value}")
            shares.append(value / total)
        return max(shares, default=0.0)

    @staticmethod
    def sum(vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        total = ResourceVector()
        for vec in vectors:
            total = total + vec
        return total
