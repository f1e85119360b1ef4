"""Output checks computed independently of the program.

Nothing here imports ``arrcomp`` or reads a golden file.  Expected values
come from closed forms (Arnold's braid polynomial, the generic Betti
numbers, Folkman's sphere counts, the surgery table (Z, Z^N, Z_2, Z_2^N))
or from Whitney's subset formula, evaluated with ranks over Q(i) that
sympy computes.

``check_ops`` gives "" for each output that passes, or the reason it
fails.  A failure is *expected* only for the known fault: ``lgroups
--json`` on an input that is not fiber-type prints no envelope.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb

from sympy import QQ_I, I, Rational
from sympy.polys.matrices import DomainMatrix

import inputs

KNOWN_FAULT = "lgroups --json on a non-fiber-type input prints no envelope"


# -- independent mathematics --------------------------------------------------


def _gauss(z):
    return QQ_I.from_sympy(
        Rational(z[0].numerator, z[0].denominator) + I * Rational(z[1].numerator, z[1].denominator)
    )


class Geometry:
    """Whitney data of an arrangement: chi(t) ascending, flats per codim
    (distinct intersections of consistent subsets), centrality and
    whether all hyperplanes share a point."""

    def __init__(self, dim: int, forms):
        self.dim = dim
        self.size = len(forms)
        rows = [[_gauss(c) for c in normal] + [_gauss(constant)] for normal, constant in forms]
        chi = [0] * (dim + 1)
        flats: dict[int, set] = {0: {()}}
        self.common_point = self.size == 0
        for k in range(1, self.size + 1):
            for subset in combinations(range(self.size), k):
                matrix = DomainMatrix([rows[i] for i in subset], (k, dim + 1), QQ_I)
                reduced, pivots = matrix.rref()
                if dim in pivots:
                    continue
                rank = len(pivots)
                chi[dim - rank] += (-1) ** k
                key = tuple(tuple(row) for row in reduced.to_list()[:rank])
                flats.setdefault(rank, set()).add(key)
                if k == self.size:
                    self.common_point = True
        chi[dim] = 1
        self.chi = chi
        self.flat_counts = {codim: len(keys) for codim, keys in flats.items()}
        self.central = all(constant == inputs.ZERO for _, constant in forms)

    def splits(self):
        """Integer roots e_1..e_r with chi = t^(dim-r) prod (t - e_k), or
        None when chi has no such factorization."""
        poly = list(self.chi)
        roots = []
        while len(poly) > 1 and poly[0] == 0:
            poly = poly[1:]
        degree = len(poly) - 1
        for _ in range(degree):
            root = next((e for e in range(1, self.size + 1) if _eval(poly, e) == 0), None)
            if root is None:
                return None
            poly = _divide_root(poly, root)
            roots.append(root)
        return sorted(roots)

    @property
    def fiber_type(self) -> bool:
        """For every input family in this benchmark, fiber-type exactly when
        the hyperplanes share a point and chi splits over the integers:
        rank-2 central, pencil-plus-one and boolean-type inputs split; the
        generic central ones of rank 3 do not."""
        return self.common_point and self.splits() is not None


def _eval(poly, t):
    return sum(c * t**k for k, c in enumerate(poly))


def _divide_root(poly, root):
    """Divide ascending ``poly`` by (t - root)."""
    quotient = [0] * (len(poly) - 1)
    carry = 0
    for k in range(len(poly) - 1, 0, -1):
        carry = poly[k] + root * carry
        quotient[k - 1] = carry
    return quotient


def product_poly(shift: int, roots) -> list:
    """Ascending coefficients of t^shift * prod (t - e)."""
    poly = [1]
    for e in roots:
        nxt = [0] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k + 1] += c
            nxt[k] -= c * e
        poly = nxt
    return [0] * shift + poly


def elementary_symmetric(values) -> list:
    e = [1]
    for v in values:
        e = [a + v * b for a, b in zip(e + [0], [0] + e)]
    return e


def set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]


def braid_flats(inp) -> dict:
    """Flats of the braid arrangement: one per set partition of the
    coordinates, made of the x_i = x_j inside its blocks, of codimension
    (number of coordinates) - (number of blocks).  Maps hyperplane-index
    set -> codim."""
    pair_index = {}
    for index, (normal, _) in enumerate(inp.forms):
        i, j = (k for k, c in enumerate(normal) if c != inputs.ZERO)
        pair_index[(i, j)] = index
    flats = {}
    for partition in set_partitions(list(range(inp.dim))):
        gens = frozenset(
            pair_index[pair] for block in partition for pair in combinations(sorted(block), 2)
        )
        flats[gens] = inp.dim - len(partition)
    return flats


def group_string(free: int, torsion_count: int) -> str:
    parts = []
    if free:
        parts.append("Z" if free == 1 else f"Z^{free}")
    if torsion_count:
        parts.append("Z_2" if torsion_count == 1 else f"Z_2^{torsion_count}")
    return " + ".join(parts) or "0"


def surgery_table(count: int) -> list:
    """(Z, Z^N, Z_2, Z_2^N) as the CLI's JSON table entries."""
    shape = [(1, 0), (count, 0), (0, 1), (0, count)]
    return [
        {"residue": i, "group": group_string(free, tors), "free_rank": free, "torsion": [2] * tors}
        for i, (free, tors) in enumerate(shape)
    ]


# -- expectations per input ------------------------------------------------------


class Expect:
    """What the outputs on one input must say."""

    def __init__(self, inp):
        self.dim = inp.dim
        self.size = len(inp.forms)
        self.flats = None  # exact hyperplane sets, where known
        if inp.template == "braid":
            n = inp.dim - 1
            self.chi = product_poly(1, range(1, n + 1))
            self.betti = elementary_symmetric(range(1, n + 1)) + [0]
            codims = braid_flats(inp)
            self.flats = set(codims)
            self.flat_counts = {}
            for codim in codims.values():
                self.flat_counts[codim] = self.flat_counts.get(codim, 0) + 1
            self.central = True
            self.fiber_type = True
        elif inp.template == "generic":
            ell = inp.dim
            self.chi = None
            self.betti = [comb(self.size, k) for k in range(ell)] + [comb(self.size - 1, ell - 1)]
            self.central = True
            self.fiber_type = False
        else:
            geo = Geometry(inp.dim, inp.forms)
            self.chi = geo.chi
            self.flat_counts = geo.flat_counts
            self.central = geo.central
            self.fiber_type = geo.fiber_type
            self.betti = [abs(self.chi[self.dim - k]) for k in range(self.dim + 1)]

    def sphere_dims(self) -> list:
        """Folkman: b_k spheres of dimension k + 1 in the full-poset model."""
        return sorted(k + 1 for k, b in enumerate(self.betti) if k for _ in range(b))


# -- checks per command -----------------------------------------------------------


class CheckError(Exception):
    pass


def _envelope(stdout: str, command: str, input_value) -> dict:
    try:
        env = json.loads(stdout)
    except json.JSONDecodeError:
        raise CheckError("stdout is not a JSON envelope") from None
    if not isinstance(env, dict) or env.get("schema") != 1:
        raise CheckError("envelope without schema 1")
    if env.get("command") != command or env.get("input") != input_value:
        raise CheckError("envelope names another command or input")
    if not isinstance(env.get("result"), dict) or not isinstance(env.get("warnings"), list):
        raise CheckError("envelope without result or warnings")
    return env


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _check_file_op(op, path, code, stdout, stderr, expect: Expect) -> None:
    command = op.command
    negative = command in ("fibertype", "lgroups") and not expect.fiber_type
    if command == "lgroups" and negative and code == 3 and not stdout:
        raise CheckError(KNOWN_FAULT)
    _need(code == (3 if negative else 0), f"exit code {code}")
    _need(stderr == "", "unexpected stderr")
    env = _envelope(stdout, command, path)
    result, warnings = env["result"], env["warnings"]
    if command == "lattice":
        _need(result["ambient_dim"] == expect.dim, "ambient_dim")
        _need(result["hyperplane_count"] == expect.size, "hyperplane_count")
        counts: dict[int, int] = {}
        chi = [0] * (expect.dim + 1)
        for flat in result["flats"]:
            counts[flat["codim"]] = counts.get(flat["codim"], 0) + 1
            _need(flat["dim"] == expect.dim - flat["codim"], "flat dim")
            chi[flat["dim"]] += flat["mobius"]
        _need(counts == expect.flat_counts, f"flats per codim {counts}")
        _need(result["flat_count"] == sum(counts.values()), "flat_count")
        _need(result["rank"] == max(counts), "rank")
        _need(chi == expect.chi, "sum of mobius values is not chi")
        if expect.flats is not None:
            got = {frozenset(f["hyperplanes"]) for f in result["flats"]}
            _need(got == expect.flats, "flat hyperplane sets")
    elif command == "charpoly":
        _need(result["coefficients"] == expect.chi, "coefficients")
    elif command == "betti":
        _need(result["betti"] == expect.betti, "betti numbers")
    elif command == "fibertype":
        _need(result["fiber_type"] == expect.fiber_type, "fiber-type answer")
        if expect.fiber_type:
            ranks = result["fiber_ranks"]
            _need(all(e > 0 for e in ranks) and len(result["chain"]) == len(ranks), "tower shape")
            shift = expect.dim - len(ranks)
            _need(expect.chi is not None and product_poly(shift, ranks) == expect.chi,
                  "chi != t^(l-r) prod (t - e_k)")
            _need(result["affine"] == (not expect.central), "affine flag")
    elif command == "suspension":
        _need(result["sphere_dims"] == [2] * expect.size, "hyperplane-count model")
        diverges = any("diverges" in w for w in warnings)
        if "--full-poset" in op.flags:
            dims = result["full_poset"]["sphere_dims"]
            _need(dims == expect.sphere_dims(), "full-poset sphere dims")
            _need(diverges == (dims != [2] * expect.size), "divergence warning")
            _need(not any("torsion" in w for w in warnings), "torsion warning")
        else:
            _need(not warnings, "warnings without --full-poset")
    elif command == "lgroups":
        if not expect.fiber_type:
            _need("table" not in result, "table for a non-fiber-type input")
            return
        _need(result["hyperplane_count"] == expect.size, "hyperplane_count")
        _need(result["table"] == surgery_table(expect.size), "surgery table")
        _need(bool(warnings) == (not expect.central), "affine caveat")


def _check_count_op(op, code, stdout, stderr) -> None:
    n = op.n
    _need(code == 0, f"exit code {code}")
    _need(stderr == "", "unexpected stderr")
    result = _envelope(stdout, op.command, n)["result"]
    _need(result["n"] == n, "n")
    if op.command == "spf-pb":
        _need(result["quotient_ranks"] == list(range(1, n + 1)), "quotient ranks")
        _need(result["rank_bound"] == n, "rank bound")
    elif op.command == "surgery-pb":
        count = n * (n + 1) // 2
        _need(result["hyperplane_count"] == count, "hyperplane_count")
        _need(result["table"] == surgery_table(count), "surgery table")
    elif op.command == "braid":
        dim, forms = inputs.parse_text(result["file"])
        _need(dim == n + 1 == result["ambient_dim"], "ambient dim")
        pairs = set()
        for normal, constant in forms:
            nonzero = [k for k, c in enumerate(normal) if c != inputs.ZERO]
            _need(constant == inputs.ZERO and len(nonzero) == 2, "not of the form x_i = x_j")
            i, j = nonzero
            _need(normal[i] == inputs.csub(inputs.ZERO, normal[j]), "not of the form x_i = x_j")
            pairs.add((i, j))
        _need(len(forms) == result["hyperplane_count"] == n * (n + 1) // 2, "hyperplane count")
        _need(pairs == set(combinations(range(n + 1), 2)), "pairs i < j")


def check_ops(workload, ops) -> list:
    """One reason per op ("" when the output passes).  ``ops`` holds
    ``[argv, code, stdout, stderr]`` in the workload's op order."""
    expectations = {inp.name: Expect(inp) for inp in workload.inputs}
    reasons = []
    for op, (argv, code, stdout, stderr) in zip(workload.ops, ops):
        try:
            if op.input_name:
                _check_file_op(op, argv[2], code, stdout, stderr, expectations[op.input_name])
            else:
                _check_count_op(op, code, stdout, stderr)
            reasons.append("")
        except CheckError as exc:
            reasons.append(str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            reasons.append(f"malformed result: {exc!r}")
    if len(ops) != len(workload.ops):
        reasons.append(f"{len(ops)} outputs for {len(workload.ops)} commands")
    return reasons
