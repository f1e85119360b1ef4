"""Affine hyperplane arrangements over the Gaussian rationals and their
intersection posets.

A hyperplane is the solution set of one exact linear equation ``a . x = b``.
Flats are the nonempty intersections of sub-collections of hyperplanes,
ordered by reverse inclusion of subspaces.  The poset is a matroid
closure: each flat is identified by its generators, the set of all
hyperplanes that contain it, so the same subspace cut out by different
sub-collections is one flat, and linear algebra only has to say which
hyperplane equations lie in the span of a flat's system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    DimensionMismatchError,
    DuplicateHyperplaneError,
    FlatNotFoundError,
    IndexOutOfRangeError,
    InvalidParameterError,
    ZeroNormalError,
)
from .linalg import ONE, ZERO, GaussianRational, Matrix, rref, solve_affine


@dataclass(frozen=True)
class Hyperplane:
    """The affine hyperplane {x : normal . x = constant}."""

    normal: tuple
    constant: GaussianRational

    @classmethod
    def make(cls, normal: Sequence, constant) -> "Hyperplane":
        normal = tuple(GaussianRational.coerce(x) for x in normal)
        constant = GaussianRational.coerce(constant)
        if not any(normal):
            raise ZeroNormalError("hyperplane normal is the zero vector")
        return cls(normal, constant)

    def canonical_form(self) -> tuple:
        """Scale so the leading normal coefficient is 1; scalar multiples of
        the same hyperplane collapse to one value."""
        lead = next(x for x in self.normal if x)
        return tuple(x / lead for x in self.normal) + (self.constant / lead,)


@dataclass(frozen=True)
class Arrangement:
    """A finite list of pairwise-distinct hyperplanes in C^n."""

    ambient_dim: int
    hyperplanes: tuple
    labels: tuple = ()

    @property
    def size(self) -> int:
        return len(self.hyperplanes)

    def label(self, index: int) -> str:
        if self.labels and self.labels[index]:
            return self.labels[index]
        return f"H{index}"

    def is_central(self) -> bool:
        """True when every hyperplane passes through the origin."""
        return all(h.constant == ZERO for h in self.hyperplanes)


def make_arrangement(dim: int, forms: Sequence, labels: Optional[Sequence[str]] = None) -> Arrangement:
    """Validate and build an arrangement from (normal, constant) pairs.

    Rejects zero normals, wrong-length normals, and duplicate hyperplanes
    (forms equal up to a nonzero scalar).  An empty form list is allowed:
    the empty arrangement's complement is all of C^n.
    """
    if dim < 0:
        raise InvalidParameterError("ambient dimension must be >= 0")
    hyperplanes = []
    seen = {}
    for k, (normal, constant) in enumerate(forms):
        normal = tuple(GaussianRational.coerce(x) for x in normal)
        if len(normal) != dim:
            raise DimensionMismatchError(
                f"form {k}: normal has length {len(normal)}, ambient dimension is {dim}"
            )
        h = Hyperplane.make(normal, constant)
        key = h.canonical_form()
        if key in seen:
            raise DuplicateHyperplaneError(
                f"form {k} defines the same hyperplane as form {seen[key]}"
            )
        seen[key] = k
        hyperplanes.append(h)
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != len(hyperplanes):
            raise DimensionMismatchError("label count does not match hyperplane count")
    else:
        labels = ()
    return Arrangement(dim, tuple(hyperplanes), labels)


def braid_arrangement(n: int) -> Arrangement:
    """The arrangement of all x_i = x_j (i < j) in C^(n+1).

    Has n(n+1)/2 hyperplanes; its complement is the configuration space of
    n+1 labeled points in C, whose fundamental group is the pure braid
    group on n+1 strands.
    """
    if n < 1:
        raise InvalidParameterError("braid arrangement needs n >= 1")
    forms = []
    labels = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            normal = [ZERO] * (n + 1)
            normal[i] = ONE
            normal[j] = -ONE
            forms.append((normal, ZERO))
            if i <= 9 and j <= 9:
                labels.append(f"H_{{{i}{j}}}")
            else:
                labels.append(f"H_{{{i},{j}}}")
    return make_arrangement(n + 1, forms, labels)


@dataclass(frozen=True)
class Flat:
    """One nonempty intersection of hyperplanes.

    ``generators`` is the full set of hyperplane indices containing the
    flat; it identifies the flat and makes the poset order a plain subset
    test.  ``system`` is the reduced row echelon form of the defining
    equations (coefficients plus a trailing constant column); it orders
    the flats within a codimension and is what ``key()`` returns.
    """

    id: int
    codim: int
    generators: frozenset
    system: Matrix

    def dim(self, ambient_dim: int) -> int:
        return ambient_dim - self.codim

    def key(self):
        return self.system.entries


class IntersectionPoset:
    """All nonempty intersections of sub-collections of an arrangement,
    ordered by reverse inclusion.

    Flat 0 is always the bottom element (the ambient space).  For flats p,
    q the relation p <= q holds exactly when every hyperplane through p
    also passes through q, so order queries are frozenset containments.
    """

    def __init__(self, arrangement: Arrangement, flats: Sequence[Flat]):
        self.arrangement = arrangement
        self.flats = list(flats)
        self.ambient_dim = arrangement.ambient_dim
        self.hyperplane_count = arrangement.size
        self.rank = max(f.codim for f in self.flats)
        layers: dict[int, list[int]] = {}
        for f in self.flats:
            layers.setdefault(f.codim, []).append(f.id)
        self.rank_layers = {c: tuple(ids) for c, ids in sorted(layers.items())}
        self._by_generators = {f.generators: f.id for f in self.flats}

    def __len__(self):
        return len(self.flats)

    def flat(self, flat_id: int) -> Flat:
        if not 0 <= flat_id < len(self.flats):
            raise FlatNotFoundError(f"no flat with id {flat_id}")
        return self.flats[flat_id]

    def leq(self, a: int, b: int) -> bool:
        return self.flats[a].generators <= self.flats[b].generators

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.leq(a, b)

    def proper_ids(self) -> tuple[int, ...]:
        return tuple(f.id for f in self.flats if f.codim > 0)

    def top_id(self) -> Optional[int]:
        """The maximum element, present exactly when some flat lies on
        every hyperplane (the arrangement has a common point)."""
        everything = frozenset(range(self.hyperplane_count))
        return self._by_generators.get(everything)

    def meet(self, a: int, b: int) -> int:
        """Greatest lower bound; always exists (the bottom is below all)."""
        common = self.flats[a].generators & self.flats[b].generators
        return self._by_generators[common]

    def join(self, a: int, b: int) -> Optional[int]:
        """Least upper bound, or None when the two subspaces are disjoint."""
        union = self.flats[a].generators | self.flats[b].generators
        lo = max(self.flats[a].codim, self.flats[b].codim)
        for codim in range(lo, self.rank + 1):
            for fid in self.rank_layers.get(codim, ()):
                if union <= self.flats[fid].generators:
                    return fid
        return None


def _dot(a, b):
    total = ZERO
    for x, y in zip(a, b):
        total = total + x * y
    return total


def _in_span(row, system: Matrix, pivots) -> bool:
    """True when ``row`` is a combination of the rows of ``system``, a
    matrix in reduced row echelon form with the given pivot columns.

    The only candidate takes ``row[p]`` times the row with pivot p, which
    already agrees with ``row`` on the pivot columns, so the test compares
    the other columns and stops at the first that differs.
    """
    terms = [(row[p], system.row(i)) for i, p in enumerate(pivots) if row[p]]
    for j, x in enumerate(row):
        if j in pivots:
            continue
        total = ZERO
        for factor, basis in terms:
            if basis[j]:
                total = total + factor * basis[j]
        if total != x:
            return False
    return True


def intersection_poset(arrangement: Arrangement) -> IntersectionPoset:
    """Close the flats under intersection with one more hyperplane, one
    codimension at a time.

    Every flat of codimension k+1 is a flat of codimension k cut by one
    hyperplane that does not contain it.  One row reduction of the flat's
    system stacked with that hyperplane's equation either shows the two
    are disjoint (a pivot in the constant column) or gives the cover's
    system; the cover's generators are the hyperplanes whose equations lie
    in its span, and none of them is tried again from the same flat.
    Covers are keyed by their generators, and each new layer is sorted by
    its reduced systems so the output order does not depend on the
    hyperplane input order.
    """
    n = arrangement.ambient_dim
    rows = [h.normal + (h.constant,) for h in arrangement.hyperplanes]
    flats = [Flat(id=0, codim=0, generators=frozenset(), system=Matrix(0, n + 1, ()))]
    layer = flats
    while layer:
        codim = layer[0].codim + 1
        covers = {}
        for flat in layer:
            absorbed = set(flat.generators)
            for m, row in enumerate(rows):
                if m in absorbed:
                    continue
                reduced, _, pivots = rref(Matrix(codim, n + 1, flat.system.entries + row))
                if n in pivots:
                    continue
                system = Matrix(codim, n + 1, reduced.entries[: codim * (n + 1)])
                generators = flat.generators | {
                    k
                    for k, other in enumerate(rows)
                    if k not in flat.generators and _in_span(other, system, pivots)
                }
                absorbed |= generators
                covers.setdefault(generators, system)
        ordered = sorted(covers.items(), key=lambda item: _system_sort_key(item[1]))
        layer = [
            Flat(id=len(flats) + i, codim=codim, generators=generators, system=system)
            for i, (generators, system) in enumerate(ordered)
        ]
        flats.extend(layer)
    return IntersectionPoset(arrangement, flats)


def _system_sort_key(system: Matrix):
    return tuple(x.sort_key() for x in system.entries)


def deletion(arrangement: Arrangement, h: int) -> Arrangement:
    """The arrangement with hyperplane ``h`` removed."""
    if not 0 <= h < arrangement.size:
        raise IndexOutOfRangeError(f"hyperplane index {h} out of range")
    forms = [
        (hp.normal, hp.constant)
        for k, hp in enumerate(arrangement.hyperplanes)
        if k != h
    ]
    labels = None
    if arrangement.labels:
        labels = [l for k, l in enumerate(arrangement.labels) if k != h]
    return make_arrangement(arrangement.ambient_dim, forms, labels)


def restriction(arrangement: Arrangement, h: int) -> Arrangement:
    """The arrangement induced on hyperplane ``h``.

    Coordinates on H_h come from solving its equation for the pivot
    variable of its reduced form; the free variables, in order, become the
    coordinates of C^(n-1).  Hyperplanes that miss H_h are dropped and
    hyperplanes cutting the same trace are merged.
    """
    if not 0 <= h < arrangement.size:
        raise IndexOutOfRangeError(f"hyperplane index {h} out of range")
    n = arrangement.ambient_dim
    target = arrangement.hyperplanes[h]
    solved = solve_affine(Matrix.from_rows([target.normal], cols=n), [target.constant])
    witness, directions = solved

    forms = []
    labels = []
    seen = {}
    for m, other in enumerate(arrangement.hyperplanes):
        if m == h:
            continue
        induced_normal = tuple(_dot(other.normal, d) for d in directions)
        induced_constant = other.constant - _dot(other.normal, witness)
        if not any(induced_normal):
            # parallel to H_h (no intersection) when the constant survives
            continue
        induced = Hyperplane.make(induced_normal, induced_constant)
        key = induced.canonical_form()
        if key in seen:
            continue
        seen[key] = m
        forms.append((induced_normal, induced_constant))
        labels.append(arrangement.label(m))
    return make_arrangement(n - 1, forms, labels if forms else None)
