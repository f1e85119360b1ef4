"""Four-periodic surgery obstruction groups of fiber-type arrangement
complements, and the group-theoretic records that justify them.

All values are finitely generated abelian groups assembled from two
building blocks: the point values (Z, 0, Z_2, 0 in residues 0..3 mod 4)
and Betti numbers.  ``assembly_from_betti`` sums b_k copies of the point
value in degree i-k.  The suspended complement of an N-hyperplane
arrangement is a wedge of N two-spheres, so the homology rule is that
assembly at Betti numbers (1, N):

    h_i(complement) = h_i(point) + N * h_{i-1}(point).

The fiber-type table is this rule in residues 0..3, which gives the
closed form (Z, Z^N, Z_2, Z_2^N).  The pure braid group case is the
braid arrangement specialization N = n(n+1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .arrangement import braid_arrangement
from .errors import InvalidParameterError, MalformedBettiError
from .lattice import fiber_type


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in canonical form: free rank plus
    finite cyclic orders sorted ascending.

    >>> str(AbelianGroup(free_rank=2, torsion=(2,)))
    'Z^2 + Z_2'
    >>> AbelianGroup(1).direct_sum(AbelianGroup(0, (2,)).power(3))
    AbelianGroup(free_rank=1, torsion=(2, 2, 2))
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise InvalidParameterError("free rank must be nonnegative")
        if any(t < 2 for t in self.torsion):
            raise InvalidParameterError("torsion orders must be at least 2")
        object.__setattr__(self, "torsion", tuple(sorted(self.torsion)))

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup(
            free_rank=self.free_rank + other.free_rank,
            torsion=self.torsion + other.torsion,
        )

    def power(self, k: int) -> "AbelianGroup":
        """Direct sum of k copies."""
        if k < 0:
            raise InvalidParameterError("power must be nonnegative")
        return AbelianGroup(free_rank=self.free_rank * k, torsion=self.torsion * k)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        run_order = None
        run_count = 0
        for order in self.torsion + (None,):
            if order == run_order:
                run_count += 1
                continue
            if run_order is not None:
                if run_count == 1:
                    parts.append(f"Z_{run_order}")
                else:
                    parts.append(f"Z_{run_order}^{run_count}")
            run_order = order
            run_count = 1
        if not parts:
            return "0"
        return " + ".join(parts)


TRIVIAL_GROUP = AbelianGroup(free_rank=0)
Z = AbelianGroup(free_rank=1)
Z2 = AbelianGroup(free_rank=0, torsion=(2,))


def l_point(i: int) -> AbelianGroup:
    """Surgery group of the trivial group in degree i: four-periodic with
    values Z, 0, Z_2, 0 in residues 0, 1, 2, 3.  Negative degrees reduce
    by true modulo."""
    return (Z, TRIVIAL_GROUP, Z2, TRIVIAL_GROUP)[i % 4]


def h_of_complement(hyperplane_count: int, i: int) -> AbelianGroup:
    """Degree-i point-spectrum homology of an N-hyperplane arrangement
    complement: the point value plus N copies of the point value one
    degree down, read off the wedge splitting of the suspension."""
    if hyperplane_count < 0:
        raise InvalidParameterError("hyperplane count must be nonnegative")
    return assembly_from_betti((1, hyperplane_count), i)


@dataclass(frozen=True)
class SurgeryTable:
    """Surgery groups by residue mod 4, with the name of the producing
    rule in ``provenance``.  Indexing accepts any integer degree."""

    by_residue: tuple
    provenance: str

    def __post_init__(self):
        if len(self.by_residue) != 4:
            raise InvalidParameterError("table needs exactly four residues")

    def __getitem__(self, i: int) -> AbelianGroup:
        return self.by_residue[i % 4]

    def rows(self) -> list[tuple]:
        return [(i, self.by_residue[i]) for i in range(4)]


def surgery_fiber_type(hyperplane_count: int) -> SurgeryTable:
    """Surgery groups of the fundamental group of a fiber-type
    N-hyperplane arrangement complement: the homology rule in residues
    0..3, which is (Z, Z^N, Z_2, Z_2^N)."""
    if hyperplane_count < 1:
        raise InvalidParameterError("fiber-type table needs at least one hyperplane")
    table = tuple(h_of_complement(hyperplane_count, i) for i in range(4))
    return SurgeryTable(by_residue=table, provenance="fiber-type")


def surgery_pure_braid(n: int) -> SurgeryTable:
    """Surgery groups of the pure braid group on n+1 strands: the braid
    arrangement has n(n+1)/2 hyperplanes."""
    if n < 1:
        raise InvalidParameterError("pure braid table needs n >= 1")
    base = surgery_fiber_type(n * (n + 1) // 2)
    return SurgeryTable(by_residue=base.by_residue, provenance="pure-braid")


def assembly_from_betti(betti, i: int) -> AbelianGroup:
    """Degree-i point-spectrum homology assembled from all Betti numbers:
    the direct sum over k of b_k copies of the point value in degree i-k.

    The fiber-type table is this function at Betti numbers (1, N).  With
    the full Betti vector of the complement, whose higher Betti numbers
    are nonzero as soon as a flat of codimension two exists, it can
    differ from that table, which stays the canonical output; putting
    the two side by side is ROADMAP item 2.
    """
    betti = tuple(betti)
    if not betti or betti[0] != 1:
        raise MalformedBettiError("Betti numbers must start with b_0 = 1")
    if any(b < 0 for b in betti):
        raise MalformedBettiError("Betti numbers must be nonnegative")
    total = TRIVIAL_GROUP
    for k, b in enumerate(betti):
        total = total.direct_sum(l_point(i - k).power(b))
    return total


@dataclass(frozen=True)
class SpfCertificate:
    """Filtration data witnessing that a group is strongly poly-free:
    ranks of the successive free quotients, with the conjugation-action
    condition recorded as an assertion rather than verified."""

    quotient_ranks: tuple
    normality_asserted: bool
    rank_bound: int

    def __post_init__(self):
        if any(r < 1 for r in self.quotient_ranks):
            raise InvalidParameterError("quotient ranks must be positive")
        if self.rank_bound != len(self.quotient_ranks):
            raise InvalidParameterError("rank bound must equal filtration length")


def spf_pure_braid(n: int) -> SpfCertificate:
    """Strongly poly-free certificate for the pure braid group on n+1
    strands, with quotient ranks read off the fibration tower of the
    braid arrangement (ranks 1, 2, ..., n)."""
    if n < 1:
        raise InvalidParameterError("pure braid certificate needs n >= 1")
    tower = fiber_type(braid_arrangement(n))
    if tower is None:
        raise InvalidParameterError("braid arrangement unexpectedly not fiber-type")
    return SpfCertificate(
        quotient_ranks=tower.fiber_ranks,
        normality_asserted=True,
        rank_bound=len(tower.fiber_ranks),
    )


@dataclass(frozen=True)
class BraidExtension:
    """The pure braid group sits in the full braid group on n+1 strands
    as a normal subgroup of index (n+1)!, with symmetric group quotient."""

    n: int
    subgroup_index: int
    quotient_order: int


def braid_extension(n: int) -> BraidExtension:
    if n < 1:
        raise InvalidParameterError("braid extension needs n >= 1")
    order = factorial(n + 1)
    return BraidExtension(n=n, subgroup_index=order, quotient_order=order)


@dataclass(frozen=True)
class KTheoryMetadata:
    """Vanishing lower K-theory that makes every surgery-group decoration
    agree, recorded as constants for the torsion-free groups in scope."""

    whitehead: int = 0
    reduced_projective_class: int = 0
    negative_k: int = 0
    decoration_independent: bool = True
    applies_to: str = "torsion-free subgroups of the braid groups"


def k_theory_metadata() -> KTheoryMetadata:
    return KTheoryMetadata()
