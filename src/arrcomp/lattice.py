"""Combinatorial invariants of the intersection poset: Möbius function,
characteristic polynomial, Betti numbers of the complement, and fiber-type
detection through a chain of modular flats.

Fiber-type detection works on the lattice side: a maximal chain of modular
flats (one per codimension, ending at the common intersection of all
hyperplanes) witnesses supersolvability, which for central arrangements is
equivalent to being fiber-type.  The search is exhaustive, so a negative
answer is a proof that no such chain exists.  For arrangements given by
non-homogeneous forms the same search runs on the intersection poset and
the witness carries ``affine=True`` as a caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .arrangement import Arrangement, IntersectionPoset, intersection_poset
from .errors import FlatNotFoundError
from .linalg import Matrix, matrix_rank

MobiusTable = dict


def mobius(poset: IntersectionPoset) -> MobiusTable:
    """Möbius values mu(bottom, x) for every flat, keyed by flat id.

    Computed by the defining recursion mu(bottom) = 1,
    mu(x) = -sum(mu(y) for y < x), walking flats in codimension order.
    """
    table: MobiusTable = {}
    for codim in sorted(poset.rank_layers):
        for fid in poset.rank_layers[codim]:
            if codim == 0:
                table[fid] = 1
                continue
            gens = poset.flats[fid].generators
            below = 0
            for other, value in table.items():
                if other != fid and poset.flats[other].generators <= gens:
                    below += value
            table[fid] = -below
    return table


def char_poly(arrangement: Arrangement, poset: Optional[IntersectionPoset] = None) -> list[int]:
    """Characteristic polynomial sum(mu(x) * t^dim(x)), as coefficients in
    ascending powers of t.  Monic of degree = ambient dimension."""
    if poset is None:
        poset = intersection_poset(arrangement)
    n = arrangement.ambient_dim
    coeffs = [0] * (n + 1)
    table = mobius(poset)
    for flat in poset.flats:
        coeffs[n - flat.codim] += table[flat.id]
    return coeffs


def betti_numbers(arrangement: Arrangement, poset: Optional[IntersectionPoset] = None) -> list[int]:
    """Betti numbers of the complement: b_k = |coefficient of t^(n-k) in
    the characteristic polynomial|.  That coefficient sums mu over the
    codimension-k flats, and mu(X) has sign (-1)^codim(X) for central and
    affine arrangements alike (Orlik-Terao, Thm 2.47), so no terms cancel.
    b_0 = 1 and b_1 = number of hyperplanes."""
    return [abs(c) for c in reversed(char_poly(arrangement, poset))]


def is_modular(poset: IntersectionPoset, flat_id: int) -> bool:
    """Whether the flat makes a modular pair with every other flat.

    When the pair has a join, the test is the rank identity
    codim(meet) + codim(join) = codim(x) + codim(y).  When the two
    subspaces are disjoint (no join, possible only for affine inputs) the
    join rank is replaced by the rank of the stacked defining normals of
    both flats.
    """
    if not 0 <= flat_id < len(poset.flats):
        raise FlatNotFoundError(f"no flat with id {flat_id}")
    x = poset.flats[flat_id]
    for y in poset.flats:
        meet_codim = poset.flats[poset.meet(x.id, y.id)].codim
        join_id = poset.join(x.id, y.id)
        if join_id is not None:
            join_codim = poset.flats[join_id].codim
        else:
            join_codim = _span_sum_rank(poset, x.id, y.id)
        if meet_codim + join_codim != x.codim + y.codim:
            return False
    return True


def _span_sum_rank(poset: IntersectionPoset, a: int, b: int) -> int:
    n = poset.ambient_dim
    rows = []
    for fid in (a, b):
        for row in poset.flats[fid].system.iter_rows():
            rows.append(row[:n])
    return matrix_rank(Matrix.from_rows(rows, cols=n))


@dataclass(frozen=True)
class FibrationTower:
    """Witness that the arrangement is fiber-type.

    ``chain`` lists flat ids X_1 < ... < X_r, one modular flat per
    codimension, ending at the flat lying on all hyperplanes.  Stage k of
    the corresponding bundle tower has fiber a complex line minus
    ``fiber_ranks[k-1]`` points.  ``affine`` flags witnesses obtained from
    non-homogeneous input forms, where the supersolvability equivalence is
    applied beyond its central-arrangement statement.
    """

    chain: tuple
    fiber_ranks: tuple
    affine: bool = False


def _extend_chain(poset, chain: list[int], modular, top: int) -> Optional[list[int]]:
    """Depth-first step of the tower search: extend ``chain`` by modular
    covers until it reaches ``top``.  A module-level function, not a
    closure, so the recursion holds no reference cycle that would keep
    the poset alive until the cyclic garbage collector runs."""
    level = len(chain) + 1
    if level > poset.rank:
        return chain if chain[-1] == top else None
    prev = poset.flats[chain[-1]].generators if chain else frozenset()
    candidates = [
        fid
        for fid in poset.rank_layers.get(level, ())
        if prev < poset.flats[fid].generators
    ]
    candidates.sort(key=lambda fid: (-len(poset.flats[fid].generators), fid))
    for fid in candidates:
        if not modular(fid):
            continue
        result = _extend_chain(poset, chain + [fid], modular, top)
        if result is not None:
            return result
    return None


def fiber_type(
    arrangement: Arrangement, poset: Optional[IntersectionPoset] = None
) -> Optional[FibrationTower]:
    """Find a fibration tower, or return None when none exists.

    Depth-first search over modular flats, one codimension at a time,
    candidates ordered by hyperplane count descending (then flat id); the
    first completed chain is returned, so the witness is deterministic.
    All modular candidates are explored before giving up.
    """
    if poset is None:
        poset = intersection_poset(arrangement)
    top = poset.top_id()
    if poset.rank == 0:
        # no hyperplanes: the trivial (empty) tower
        return FibrationTower(chain=(), fiber_ranks=(), affine=not arrangement.is_central())
    if top is None:
        return None

    modular_cache: dict[int, bool] = {}

    def modular(fid: int) -> bool:
        if fid not in modular_cache:
            modular_cache[fid] = is_modular(poset, fid)
        return modular_cache[fid]

    found = _extend_chain(poset, [], modular, top)
    if found is None:
        return None
    ranks = []
    prev_count = 0
    for fid in found:
        count = len(poset.flats[fid].generators)
        ranks.append(count - prev_count)
        prev_count = count
    return FibrationTower(
        chain=tuple(found),
        fiber_ranks=tuple(ranks),
        affine=not arrangement.is_central(),
    )
