"""Independent cross-checks shared by the unit tests and the acceptance
suite.

Each helper recomputes a library quantity by a different route, so
agreement with the library is evidence rather than a tautology.
"""

import random
from itertools import combinations

from arrcomp import (
    ArrcompError,
    Matrix,
    gauss,
    make_arrangement,
    order_complex_below,
    reduced_homology,
    solve_affine,
)
from arrcomp.linalg import ONE


def rref_by_fractions(m):
    """Reduced row echelon form by Gauss-Jordan elimination in
    ``GaussianRational`` arithmetic: each pivot row is divided by its pivot
    and subtracted from the others.  Same contract as ``rref``, which
    eliminates fraction-free on Gaussian-integer rows instead."""
    work = [list(r) for r in m.iter_rows()]
    pivots: list[int] = []
    lead = 0
    for col in range(m.cols):
        pivot_row = None
        for i in range(lead, m.rows):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[lead], work[pivot_row] = work[pivot_row], work[lead]
        inv = work[lead][col]
        if inv != ONE:
            work[lead] = [x / inv for x in work[lead]]
        for i in range(m.rows):
            if i != lead and work[i][col]:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[lead])]
        pivots.append(col)
        lead += 1
        if lead == m.rows:
            break
    flat = tuple(x for r in work for x in r)
    return Matrix(m.rows, m.cols, flat), len(pivots), tuple(pivots)


def mobius_by_chains(poset, target):
    """Alternating chain count from the bottom to the target flat: the sum
    of (-1)^length over all chains bottom < ... < target.  Independent of
    the recursion used by the library."""
    total = 0

    def walk(current, links):
        nonlocal total
        if current == target:
            total += (-1) ** links
            return
        for nxt in range(len(poset.flats)):
            if poset.lt(current, nxt) and poset.leq(nxt, target):
                walk(nxt, links + 1)

    walk(0, 0)
    return total


def mobius_by_subsets(arrangement, poset):
    """Signed count of hyperplane subsets by the flat they cut out.

    Each subset with nonempty intersection contributes (-1)^size to the
    smallest flat containing it; subsets with empty intersection are
    dropped.  Independent of the poset recursion.
    """
    values = {flat.id: 0 for flat in poset.flats}
    indices = range(arrangement.size)
    for size in range(arrangement.size + 1):
        for subset in combinations(indices, size):
            chosen = frozenset(subset)
            closure = None
            for flat in poset.flats:
                if chosen <= flat.generators:
                    if closure is None or flat.codim < closure.codim:
                        closure = flat
            if closure is not None:
                values[closure.id] += (-1) ** size
    return values


def flats_by_subsets(arrangement):
    """Every flat as ``(codim, generators)``, from all hyperplane subsets.

    Each subset is solved for a witness point and kernel directions; a
    hyperplane passes through the solution set when it holds at the
    witness and its normal vanishes on every direction.  Subsets with an
    empty intersection are dropped.  Independent of the layered closure
    used by the library.
    """
    n = arrangement.ambient_dim
    hyperplanes = arrangement.hyperplanes
    found = set()
    for size in range(len(hyperplanes) + 1):
        for subset in combinations(range(len(hyperplanes)), size):
            coeff = Matrix.from_rows([hyperplanes[k].normal for k in subset], cols=n)
            solved = solve_affine(coeff, [hyperplanes[k].constant for k in subset])
            if solved is None:
                continue
            witness, directions = solved
            generators = frozenset(
                m
                for m, h in enumerate(hyperplanes)
                if _dot(h.normal, witness) == h.constant
                and all(_dot(h.normal, d) == 0 for d in directions)
            )
            found.add((n - len(directions), generators))
    return found


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), gauss(0))


def expand_tower_product(ambient_dim, ranks):
    """Coefficients of t^(n-r) * prod (t - e_k), ascending."""
    coeffs = [1]
    for e in ranks:
        next_coeffs = [0] * (len(coeffs) + 1)
        for power, c in enumerate(coeffs):
            next_coeffs[power + 1] += c
            next_coeffs[power] -= c * e
        coeffs = next_coeffs
    shift = ambient_dim - len(ranks)
    return [0] * shift + coeffs


def random_arrangements(seed, count):
    """Seeded stream of small affine arrangements in C^3 with integer
    normals in [-2, 2] and constants drawn from {0, 0, 0, 1, -1}."""
    rng = random.Random(seed)
    built = 0
    while built < count:
        total = rng.randint(1, 6)
        forms = []
        for _ in range(total):
            normal = tuple(rng.randint(-2, 2) for _ in range(3))
            if not any(normal):
                continue
            constant = rng.choice((0, 0, 0, 1, -1))
            forms.append((normal, constant))
        if not forms:
            continue
        try:
            arrangement = make_arrangement(3, forms)
        except Exception:
            continue
        built += 1
        yield arrangement


def random_gaussian_arrangements(seed, count):
    """Seeded stream of small arrangements in C^2 and C^3 with Gaussian
    integer normals (parts in [-1, 1]) and constants drawn from
    {0, 0, 1, -1, i}.  A quarter of the hyperplanes after the first
    reuse the normal of the one before, so parallel pairs are common."""
    rng = random.Random(seed)
    built = 0
    while built < count:
        dim = rng.choice((2, 3))
        forms = []
        for _ in range(rng.randint(2, 6)):
            if forms and rng.random() < 0.25:
                normal = forms[-1][0]
            else:
                normal = tuple(
                    gauss(rng.randint(-1, 1), rng.choice((0, 0, 1, -1)))
                    for _ in range(dim)
                )
            constant = gauss(*rng.choice(((0, 0), (0, 0), (1, 0), (-1, 0), (0, 1))))
            forms.append((normal, constant))
        try:
            arrangement = make_arrangement(dim, forms)
        except ArrcompError:
            continue
        built += 1
        yield arrangement


def wedge_by_homology(poset):
    """Full-poset sphere dimensions from the homology of order complexes.

    For each proper flat of codimension c, a free class in degree k of
    the order complex strictly below it gives a sphere of dimension
    2c-1-k, and an empty complex gives one sphere of dimension 2c.
    Returns (sorted dimensions, torsion found as (flat, degree, order)).
    """
    dims = []
    torsion = []
    for fid in poset.proper_ids():
        c = poset.flats[fid].codim
        below = order_complex_below(poset, fid)
        if below.is_empty:
            dims.append(2 * c)
            continue
        for k, (free, orders) in enumerate(reduced_homology(below).groups):
            dims.extend([2 * c - 1 - k] * free)
            torsion.extend((fid, k, order) for order in orders)
    return tuple(sorted(dims)), torsion
