"""Affine hyperplane arrangements over the Gaussian rationals and their
intersection posets.

A hyperplane is the solution set of one exact linear equation ``a . x = b``.
Flats are the nonempty intersections of sub-collections of hyperplanes,
ordered by reverse inclusion of subspaces.  The poset is a matroid
closure: each flat is identified by its generators, the set of all
hyperplanes that contain it, so the same subspace cut out by different
sub-collections is one flat.  Linear algebra only reduces each hyperplane
equation against a flat's system, on Gaussian-integer rows with the
denominators cleared: the hyperplanes whose residuals agree up to a
scalar cut that flat in the same cover.  Hyperplanes are told apart by
the same integer key up to a scalar (``linalg.projective_key``).
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
from .linalg import (
    ONE,
    ZERO,
    GaussianRational,
    Matrix,
    _integer_row,
    _primitive_key,
    projective_key,
    rref,
)


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
        key = projective_key(h.normal + (h.constant,))
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


def intersection_poset(arrangement: Arrangement) -> IntersectionPoset:
    """Close the flats under intersection with one more hyperplane, one
    codimension at a time.

    Every flat of codimension k+1 is a flat F of codimension k cut by one
    hyperplane that does not contain it.  All elimination here runs on
    Gaussian-integer rows: each hyperplane's equation, with denominators
    cleared once, is reduced against F's system, with denominators
    cleared once per visit, as ``r <- d*r - r[p]*b`` for each system row
    b with pivot p and pivot value d.  The residual vanishes on the pivot
    columns.  A residual that starts in the constant column means the
    hyperplane misses F.  Otherwise two hyperplanes cut F in the same
    flat exactly when their residuals are Q(i)-multiples of each other,
    so residuals are grouped by their primitive integer key; each group
    is one cover and its generators are F's plus the group.  A cover
    seen for the first time gets its system from one row reduction of F's
    system stacked with the row of any hyperplane in the group, which
    spans the same space as F's system plus the residual.  Covers are
    keyed by their generators, and each new layer is sorted by its
    reduced systems so the output order does not depend on the
    hyperplane input order.
    """
    n = arrangement.ambient_dim
    rows = [h.normal + (h.constant,) for h in arrangement.hyperplanes]
    integer_rows = [_integer_row(row) for row in rows]
    flats = [Flat(id=0, codim=0, generators=frozenset(), system=Matrix(0, n + 1, ()))]
    layer = flats
    while layer:
        codim = layer[0].codim + 1
        covers = {}
        for flat in layer:
            # each system row as (pivot column, pivot value, nonzero entries past it);
            # the rational pivot is 1, so the integer pivot value is real
            basis = []
            for row in flat.system.iter_rows():
                re, im = _integer_row(row)
                nonzero = [(j, re[j], im[j]) for j in range(n + 1) if re[j] or im[j]]
                p, d, _ = nonzero[0]
                basis.append((p, d, nonzero[1:]))
            groups = {}
            for k, (re, im) in enumerate(integer_rows):
                if k in flat.generators:
                    continue
                re, im = re.copy(), im.copy()
                for p, d, tail in basis:
                    c, e = re[p], im[p]
                    if c or e:
                        if d != 1:
                            re = [d * x for x in re]
                            im = [d * y for y in im]
                        re[p] = im[p] = 0
                        for j, u, v in tail:
                            re[j] -= c * u - e * v
                            im[j] -= c * v + e * u
                # the residual is nonzero, since every hyperplane through the
                # flat is a generator; zero normal part: the hyperplane misses
                if not (any(re[:n]) or any(im[:n])):
                    continue
                groups.setdefault(_primitive_key(re, im), []).append(k)
            for group in groups.values():
                generators = flat.generators.union(group)
                if generators not in covers:
                    stacked = Matrix(codim, n + 1, flat.system.entries + rows[group[0]])
                    covers[generators] = rref(stacked)[0]
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
    coordinates of C^(n-1).  With the reduced row r and pivot p, H_h says
    x_p = r[n] - sum(r[j] * x_j for j != p), so another hyperplane g
    traces the equation g - g[p] * r with column p dropped.  Hyperplanes
    that miss H_h are dropped and hyperplanes cutting the same trace are
    merged.
    """
    if not 0 <= h < arrangement.size:
        raise IndexOutOfRangeError(f"hyperplane index {h} out of range")
    n = arrangement.ambient_dim
    target = arrangement.hyperplanes[h]
    reduced, _, (p,) = rref(Matrix(1, n + 1, target.normal + (target.constant,)))
    row = reduced.entries

    forms = []
    labels = []
    seen = {}
    for m, other in enumerate(arrangement.hyperplanes):
        if m == h:
            continue
        g = other.normal + (other.constant,)
        traced = [x - g[p] * r for x, r in zip(g, row)]
        del traced[p]
        induced_normal, induced_constant = tuple(traced[:-1]), traced[-1]
        if not any(induced_normal):
            # parallel to H_h (no intersection) when the constant survives
            continue
        key = projective_key(induced_normal + (induced_constant,))
        if key in seen:
            continue
        seen[key] = m
        forms.append((induced_normal, induced_constant))
        labels.append(arrangement.label(m))
    return make_arrangement(n - 1, forms, labels if forms else None)
