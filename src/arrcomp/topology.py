"""Stable topology of the complement: order complexes of the intersection
poset, their integral simplicial homology, and wedge-of-spheres models of
the suspended complement.

Two wedge models are computed on purpose.  ``suspension_wedge`` is the
hyperplane-count model: the suspension of the complement is a wedge of N
two-spheres, N the number of hyperplanes.  ``gm_wedge`` evaluates the
underlying subspace-arrangement decomposition over the full proper poset,
where every flat X contributes |mu(X)| spheres of dimension codim(X) + 1;
summed over each codimension k that is b_k spheres of dimension k + 1,
read off the Betti numbers, which come from the characteristic
polynomial.  The two disagree as soon as a flat of codimension two or
more exists; the disagreement is reported as a warning on the full-poset
result, never reconciled silently.

Order complexes and their integral homology are public API and the
independent reference that the tests check ``gm_wedge`` against; neither
wedge model uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .arrangement import Arrangement, IntersectionPoset
from .errors import InvalidParameterError
from .lattice import betti_numbers
from .linalg import IntegerMatrix, smith_normal_form


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex on integer vertices.

    ``simplices`` holds every nonempty face as a frozenset, closed under
    taking subsets.  The empty complex (no faces at all) is allowed.
    """

    vertices: tuple
    simplices: frozenset

    def __post_init__(self):
        vertex_set = set(self.vertices)
        for s in self.simplices:
            if not s:
                raise InvalidParameterError("empty face not allowed")
            if not s <= vertex_set:
                raise InvalidParameterError(f"face {sorted(s)} uses unknown vertices")
            if len(s) > 1:
                for facet in combinations(sorted(s), len(s) - 1):
                    if frozenset(facet) not in self.simplices:
                        raise InvalidParameterError(
                            f"missing face {list(facet)}: not downward closed"
                        )

    @classmethod
    def from_faces(cls, faces: Sequence) -> "SimplicialComplex":
        """Build the downward closure of the given faces."""
        closed = set()
        stack = [frozenset(f) for f in faces if f]
        while stack:
            face = stack.pop()
            if face in closed:
                continue
            closed.add(face)
            if len(face) > 1:
                for sub in combinations(sorted(face), len(face) - 1):
                    stack.append(frozenset(sub))
        vertices = tuple(sorted({v for f in closed for v in f}))
        return cls(vertices=vertices, simplices=frozenset(closed))

    @property
    def is_empty(self) -> bool:
        return not self.simplices

    @property
    def dimension(self) -> int:
        """Top face dimension; -1 for the empty complex."""
        if self.is_empty:
            return -1
        return max(len(s) for s in self.simplices) - 1

    def faces_of_dim(self, k: int) -> list[tuple]:
        """The k-faces as sorted vertex tuples, in a deterministic order."""
        return sorted(tuple(sorted(s)) for s in self.simplices if len(s) == k + 1)


def order_complex_below(poset: IntersectionPoset, flat_id: int) -> SimplicialComplex:
    """Order complex of the proper flats strictly below the given flat.

    Vertices are flats other than the bottom that lie strictly below
    ``flat_id``; faces are the chains among them.  A flat of codimension
    one yields the empty complex.
    """
    poset.flat(flat_id)
    below = [
        fid for fid in poset.proper_ids() if fid != flat_id and poset.leq(fid, flat_id)
    ]
    below.sort(key=lambda fid: (poset.flats[fid].codim, fid))
    # chains as tuples of positions in ``below``, grown from an explicit
    # stack: a recursive closure would refer to itself and keep the poset
    # alive until the cyclic garbage collector runs
    faces = []
    stack = [(i,) for i in range(len(below))]
    while stack:
        chain = stack.pop()
        faces.append(frozenset(below[i] for i in chain))
        last = below[chain[-1]]
        for j in range(chain[-1] + 1, len(below)):
            if poset.lt(last, below[j]):
                stack.append(chain + (j,))
    return SimplicialComplex(vertices=tuple(below), simplices=frozenset(faces))


@dataclass(frozen=True)
class ReducedHomology:
    """Integral reduced homology of a simplicial complex.

    ``groups[k]`` is a pair (free rank, torsion orders ascending) for
    degree k; degrees beyond the tuple are trivial.  The empty complex has
    an empty tuple: trivial in all reported degrees.
    """

    groups: tuple

    def free_rank(self, k: int) -> int:
        if 0 <= k < len(self.groups):
            return self.groups[k][0]
        return 0

    def torsion(self, k: int) -> tuple:
        if 0 <= k < len(self.groups):
            return self.groups[k][1]
        return ()

    @property
    def is_trivial(self) -> bool:
        return all(rank == 0 and not tors for rank, tors in self.groups)


def _boundary_matrix(complex_: SimplicialComplex, k: int) -> IntegerMatrix:
    """Boundary map from k-faces to (k-1)-faces; for k = 0 the target is
    the augmentation rank-one group, sending every vertex to 1."""
    sources = complex_.faces_of_dim(k)
    if k == 0:
        entries = tuple(1 for _ in sources)
        return IntegerMatrix(rows=1, cols=len(sources), entries=entries)
    targets = {face: i for i, face in enumerate(complex_.faces_of_dim(k - 1))}
    rows = len(targets)
    cols = len(sources)
    entries = [0] * (rows * cols)
    for j, face in enumerate(sources):
        for drop in range(len(face)):
            sub = face[:drop] + face[drop + 1 :]
            i = targets[sub]
            entries[i * cols + j] = (-1) ** drop
    return IntegerMatrix(rows=rows, cols=cols, entries=tuple(entries))


def reduced_homology(complex_: SimplicialComplex) -> ReducedHomology:
    """Reduced integral homology in every degree, torsion included.

    Computed from ranks and Smith normal forms of the boundary maps of
    the augmented chain complex.
    """
    if complex_.is_empty:
        return ReducedHomology(groups=())
    top = complex_.dimension
    counts = [len(complex_.faces_of_dim(k)) for k in range(top + 1)]
    boundary_ranks = []
    torsions: list[tuple] = []
    for k in range(top + 2):
        if k <= top:
            matrix = _boundary_matrix(complex_, k)
            factors = smith_normal_form(matrix)
            boundary_ranks.append(sum(1 for d in factors if d != 0))
            torsions.append(tuple(sorted(d for d in factors if d > 1)))
        else:
            boundary_ranks.append(0)
            torsions.append(())
    groups = []
    for k in range(top + 1):
        free = counts[k] - boundary_ranks[k] - boundary_ranks[k + 1]
        groups.append((free, torsions[k + 1]))
    return ReducedHomology(groups=tuple(groups))


@dataclass(frozen=True)
class WedgeDecomposition:
    """Multiset of sphere dimensions modeling a suspended complement as a
    wedge of spheres, with warnings for anything the model cannot carry."""

    sphere_dims: tuple
    warnings: tuple = ()

    def counts(self) -> dict:
        """Sphere count per dimension."""
        tally: dict[int, int] = {}
        for d in self.sphere_dims:
            tally[d] = tally.get(d, 0) + 1
        return tally

    def summary(self) -> str:
        """Sphere counts by ascending dimension, such as ``3 S^2 + 2 S^3``."""
        counts = self.counts()
        if not counts:
            return "no spheres"
        return " + ".join(f"{n} S^{d}" for d, n in sorted(counts.items()))


def suspension_wedge(arrangement: Arrangement) -> WedgeDecomposition:
    """Hyperplane-count model: one two-sphere per hyperplane.

    The suspended complement of an N-hyperplane arrangement is a wedge of
    N two-spheres; the empty arrangement gives the empty wedge.
    """
    return WedgeDecomposition(sphere_dims=(2,) * arrangement.size)


def gm_wedge(
    arrangement: Arrangement, poset: Optional[IntersectionPoset] = None
) -> WedgeDecomposition:
    """Full-poset model of the suspended complement.

    Every proper flat X of codimension c contributes through the complement
    of its below-complex inside a (2c-1)-sphere, read off by duality: a
    free class in degree k of the below-complex yields a sphere of
    dimension 2c-1-k after suspension.  The lower interval [bottom, X] is
    a geometric lattice (the localization at X is central), so by Folkman
    (1966) the below-complex has free homology of rank |mu(X)|, all in
    degree c-2; for c = 1 the complex is empty and contributes one sphere
    of dimension 2.  Hence X gives |mu(X)| spheres of dimension c+1, with
    no torsion to drop, and codimension k gives b_k spheres of dimension
    k+1 in all.  Divergence from the hyperplane-count model is surfaced
    as a warning.
    """
    betti = betti_numbers(arrangement, poset)
    dims = tuple(k + 1 for k in range(1, len(betti)) for _ in range(betti[k]))
    full = WedgeDecomposition(sphere_dims=dims)
    plain = suspension_wedge(arrangement)
    if full.sphere_dims == plain.sphere_dims:
        return full
    warning = (
        "full-poset model diverges from the hyperplane-count model: "
        f"{full.summary()} versus {plain.summary()}"
    )
    return WedgeDecomposition(sphere_dims=full.sphere_dims, warnings=(warning,))
