"""Coordinate charts on graded manifolds.

A chart is an ordered list of coordinate declarations, each carrying a
parity (0 = even/commuting, 1 = odd/anticommuting) and an exact rational
weight.  The chart order fixes the canonical ordering of generators in
every expression over the chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple, Union

EVEN = 0
ODD = 1

WeightLike = Union[int, str, Fraction]


class ChartError(ValueError):
    pass


def as_weight(w: WeightLike) -> Fraction:
    """Coerce a declared weight to an exact rational.

    Floats are rejected: weights enter degree arithmetic, which stays exact.
    """
    if isinstance(w, float):
        raise ChartError(
            f"weight {w!r} is a float; declare weights as exact rationals "
            "(int, Fraction, or a string like '1/2')"
        )
    if isinstance(w, Fraction):
        return w
    if isinstance(w, (int, str)):
        return Fraction(w)
    raise ChartError(f"cannot interpret {w!r} as a rational weight")


def as_parity(p) -> int:
    if p in (0, 1):
        return int(p)
    if isinstance(p, str):
        s = p.strip().lower()
        if s == "even":
            return EVEN
        if s == "odd":
            return ODD
    raise ChartError(f"parity must be 0/1 or 'even'/'odd', got {p!r}")


@dataclass(frozen=True)
class CoordinateDecl:
    """One coordinate: name, parity, weight, optional sampling interval."""

    name: str
    parity: int = EVEN
    weight: Fraction = Fraction(0)
    box: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        if not self.name.isidentifier():
            raise ChartError(f"coordinate name {self.name!r} is not an identifier")
        object.__setattr__(self, "parity", as_parity(self.parity))
        object.__setattr__(self, "weight", as_weight(self.weight))
        if self.box is not None:
            lo, hi = self.box
            if not lo < hi:
                raise ChartError(f"empty sampling box {self.box!r} for {self.name}")
            object.__setattr__(self, "box", (float(lo), float(hi)))


@dataclass(frozen=True)
class ChartSpec:
    """Ordered homogeneous coordinates; the single source of grading data.

    ``default_box`` is the sampling interval used for even coordinates that
    do not declare their own (randomized equality, point sampling).
    ``odd_mask`` has bit i set when coordinate i is odd.  ``_generators``
    holds the expressions x_i and d(x_i), each built on first use by
    ``grexpr.expr.generator``; like ``_index`` it takes no part in equality,
    hashing or the repr.
    """

    coords: Tuple[CoordinateDecl, ...]
    default_box: Tuple[float, float] = (-1.0, 1.0)
    _index: dict = field(default=None, compare=False, hash=False, repr=False)
    odd_mask: int = field(default=0, init=False, compare=False, hash=False,
                          repr=False)
    _generators: dict = field(default=None, init=False, compare=False,
                              hash=False, repr=False)

    def __post_init__(self):
        coords = tuple(self.coords)
        if not coords:
            raise ChartError("a chart needs at least one coordinate")
        names = [c.name for c in coords]
        if len(set(names)) != len(names):
            raise ChartError(f"duplicate coordinate names in {names}")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_index", {c.name: i for i, c in enumerate(coords)})
        object.__setattr__(self, "odd_mask",
                           sum(c.parity << i for i, c in enumerate(coords)))
        object.__setattr__(self, "_generators", {})

    # -- basic queries ----------------------------------------------------

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def even_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c.parity == EVEN)

    @property
    def odd_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c.parity == ODD)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ChartError(f"unknown coordinate {name!r} in chart {self.names}") from None

    def parity(self, i: int) -> int:
        return self.coords[i].parity

    def weight(self, i: int) -> Fraction:
        return self.coords[i].weight

    def box_for(self, i: int) -> Tuple[float, float]:
        return self.coords[i].box or self.default_box

    def is_purely_even(self) -> bool:
        return not self.odd_indices

    def weight_set(self) -> dict:
        """Multiset of declared weights, split by parity."""
        even, odd = [], []
        for c in self.coords:
            (even if c.parity == EVEN else odd).append(c.weight)
        return {"even": sorted(even), "odd": sorted(odd)}

    def __repr__(self):
        parts = ", ".join(
            f"{c.name}{'~odd' if c.parity else ''}:{c.weight}" for c in self.coords
        )
        return f"ChartSpec({parts})"


def chart(*decls, default_box=(-1.0, 1.0)) -> ChartSpec:
    """Build a chart from ``(name, parity, weight)``-ish tuples or plain names.

    >>> chart(("z", 0, 0), ("p", 0, 1), ("q", 0, -1))
    ChartSpec(z:0, p:1, q:-1)
    """
    out = []
    for d in decls:
        if isinstance(d, CoordinateDecl):
            out.append(d)
        elif isinstance(d, str):
            out.append(CoordinateDecl(d))
        else:
            out.append(CoordinateDecl(*d))
    return ChartSpec(tuple(out), default_box=default_box)


def weights_consistent(a: ChartSpec, b: ChartSpec) -> bool:
    """Whether two charts could describe the same homogeneity structure
    around a common zero: equal weight multisets within each parity."""
    return a.weight_set() == b.weight_set()
