"""Seeded inputs and the fixed command list of each workload.

Nothing here imports ``arrcomp``: the same module feeds the measured
process (which writes the inputs as files) and the output checks (which
need the exact hyperplanes), so the checks never read the program's own
parse of its inputs.

Gaussian rationals are ``(re, im)`` pairs of ``Fraction``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

WORKLOADS = ("braid-tower", "generic-fullposet", "mixed-batch")
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

# Every file subcommand, as run on each corpus and random input.
FILE_COMMANDS = (
    ("lattice",),
    ("charpoly",),
    ("betti",),
    ("fibertype",),
    ("suspension",),
    ("suspension", "--full-poset"),
    ("lgroups",),
)

# Random templates for mixed-batch: (name, ambient dim, hyperplane count).
# Whether a template is fiber-type follows from its shape alone, given the
# genericity the generator enforces, so the number of non-fiber-type
# inputs (and of failing ``lgroups --json`` commands) is the same for
# every seed.
RANDOM_TEMPLATES = (
    ("c2-central", 2, 3), ("c2-central", 2, 3), ("c2-central", 2, 4), ("c2-central", 2, 5),
    ("c2-affine", 2, 3), ("c2-affine", 2, 3), ("c2-affine", 2, 4), ("c2-affine", 2, 5),
    ("c2-parallel", 2, 3), ("c2-parallel", 2, 3), ("c2-parallel", 2, 4),
    ("c3-central", 3, 4), ("c3-pencil", 3, 3), ("c3-shifted", 3, 3), ("c3-affine", 3, 4),
)
FIBER_TYPE_TEMPLATES = {"c2-central", "c3-pencil", "c3-shifted"}
RANDOM_BLOCKS = 2
# surgery-pb 1..10 runs this many times per round.  Every file command
# builds a poset, even on three lines, so these poset-free commands are
# what brings the CLI and file-format share of a round to a quarter.
SURGERY_REPEATS = 80

ZERO = (Fraction(0), Fraction(0))


@dataclass(frozen=True)
class Input:
    """One arrangement file: ``forms`` are ``(normal, constant)`` pairs."""

    name: str
    dim: int
    forms: tuple
    text: str
    template: str = "corpus"


@dataclass(frozen=True)
class Op:
    """One CLI command.  File commands name an input; count commands
    carry ``n``."""

    command: str
    input_name: str = ""
    n: int = 0
    flags: tuple = ()

    def argv(self, path_of) -> list:
        if self.input_name:
            return ["--json", self.command, path_of(self.input_name), *self.flags]
        return ["--json", self.command, str(self.n)]


@dataclass
class Workload:
    name: str
    inputs: list = field(default_factory=list)
    ops: list = field(default_factory=list)

    def input(self, name: str) -> Input:
        return next(i for i in self.inputs if i.name == name)


# -- Gaussian-rational arithmetic -------------------------------------------


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def det(rows) -> tuple:
    """Determinant by cofactor expansion; rows are at most 4 long here."""
    if len(rows) == 1:
        return rows[0][0]
    total = ZERO
    for j, entry in enumerate(rows[0]):
        if entry == ZERO:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = cmul(entry, det(minor))
        total = cadd(total, term) if j % 2 == 0 else csub(total, term)
    return total


# -- the file format, written and read independently of arrcomp ------------


def token(z) -> str:
    re_part, im_part = z
    return str(re_part) if not im_part else f"{re_part}:{im_part}"


def arrangement_text(dim: int, forms, comment: str = "") -> str:
    lines = [f"# {comment}"] if comment else []
    lines.append(f"arrangement {dim}")
    for normal, constant in forms:
        lines.append(" ".join(token(c) for c in normal) + " ; " + token(constant))
    return "\n".join(lines) + "\n"


def parse_token(word: str):
    re_text, _, im_text = word.partition(":")
    return (Fraction(re_text), Fraction(im_text) if im_text else Fraction(0))


def parse_text(text: str) -> tuple:
    """(dim, forms) of an arrangement file."""
    dim = None
    forms = []
    for raw in text.splitlines():
        code = raw.partition("#")[0].split()
        if not code:
            continue
        if dim is None:
            if len(code) != 2 or code[0] != "arrangement":
                raise ValueError(f"bad header {raw!r}")
            dim = int(code[1])
            continue
        cut = code.index(";")
        if cut != dim or len(code) != dim + 2:
            raise ValueError(f"bad hyperplane line {raw!r}")
        normal = tuple(parse_token(w) for w in code[:cut])
        forms.append((normal, parse_token(code[-1])))
    if dim is None:
        raise ValueError("missing header")
    return dim, tuple(forms)


# -- generators ---------------------------------------------------------------


def _integer(value: int):
    return (Fraction(value), Fraction(0))


def braid_forms(n: int, rng: random.Random) -> tuple:
    """x_i - x_j = 0 for i < j in C^(n+1), in a seeded order with seeded
    signs; the arrangement is the same for every seed."""
    forms = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            sign = rng.choice((1, -1))
            normal = [ZERO] * (n + 1)
            normal[i] = _integer(sign)
            normal[j] = _integer(-sign)
            forms.append((tuple(normal), ZERO))
    rng.shuffle(forms)
    return tuple(forms)


def moment_forms(count: int, dim: int, rng: random.Random) -> tuple:
    """Central hyperplanes with normals (1, t, ..., t^(dim-1)) for
    t = 1..count, in a seeded order with seeded signs: every dim normals
    are independent (Vandermonde), so the arrangement is generic."""
    ts = list(range(1, count + 1))
    rng.shuffle(ts)
    forms = []
    for t in ts:
        sign = rng.choice((1, -1))
        forms.append((tuple(_integer(sign * t**k) for k in range(dim)), ZERO))
    return tuple(forms)


def _scalar(rng: random.Random):
    re_part = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    im_part = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.4 else 0
    return (re_part, Fraction(im_part))


def _vector(rng: random.Random, dim: int):
    while True:
        v = tuple(_scalar(rng) for _ in range(dim))
        if any(c != ZERO for c in v):
            return v


def _nonzero(rng: random.Random):
    while True:
        z = _scalar(rng)
        if z != ZERO:
            return z


def _dot(a, b):
    total = ZERO
    for x, y in zip(a, b):
        total = cadd(total, cmul(x, y))
    return total


def _independent(vectors) -> bool:
    """Every len(v)-subset of the vectors is linearly independent."""
    dim = len(vectors[0])
    return all(det(list(sub)) != ZERO for sub in combinations(vectors, dim))


def _no_common_point(forms, size: int) -> bool:
    """No ``size`` of the affine forms share a point (size = dim + 1)."""
    return all(
        det([n + (csub(ZERO, c),) for n, c in sub]) != ZERO
        for sub in combinations(forms, size)
    )


def _draw(template: str, dim: int, count: int, rng: random.Random) -> tuple:
    """Forms for one template, or None if this draw is not generic."""
    if template in ("c2-central", "c3-central"):
        normals = [_vector(rng, dim) for _ in range(count)]
        if not _independent(normals):
            return None
        return tuple((n, ZERO) for n in normals)
    if template in ("c2-affine", "c3-affine"):
        normals = [_vector(rng, dim) for _ in range(count)]
        forms = tuple((n, _nonzero(rng)) for n in normals)
        if not _independent(normals) or not _no_common_point(forms, dim + 1):
            return None
        return forms
    if template == "c2-parallel":
        base = _vector(rng, 2)
        scale = _nonzero(rng)
        pair = [(base, _nonzero(rng)), (tuple(cmul(scale, c) for c in base), _nonzero(rng))]
        if cmul(scale, pair[0][1]) == pair[1][1]:
            return None
        others = [(_vector(rng, 2), _nonzero(rng)) for _ in range(count - 2)]
        if not _independent([base] + [n for n, _ in others]):
            return None
        if not all(_no_common_point([line] + others, 3) for line in pair):
            return None
        return tuple(pair + others)
    # c3-pencil / c3-shifted: count-1 planes through one line, one more
    # plane off it; shifted moves the whole arrangement off the origin.
    u, v, w = (_vector(rng, 3) for _ in range(3))
    if det([u, v, w]) == ZERO:
        return None
    weights = [(_nonzero(rng), _nonzero(rng)) for _ in range(count - 1)]
    if not _independent(list(weights)):
        return None
    normals = [tuple(cadd(cmul(a, x), cmul(b, y)) for x, y in zip(u, v)) for a, b in weights]
    normals.append(w)
    if template == "c3-pencil":
        return tuple((n, ZERO) for n in normals)
    point = _vector(rng, 3)
    forms = tuple((n, _dot(n, point)) for n in normals)
    if any(c == ZERO for _, c in forms):
        return None
    return forms


def random_inputs(rng: random.Random, blocks: int) -> list:
    inputs = []
    for _ in range(blocks):
        for template, dim, count in RANDOM_TEMPLATES:
            forms = None
            while forms is None:
                forms = _draw(template, dim, count, rng)
            name = f"r{len(inputs)}-{template}-{count}"
            inputs.append(Input(name, dim, forms, arrangement_text(dim, forms, name), template))
    return inputs


def corpus_inputs() -> list:
    inputs = []
    for path in sorted(CORPUS_DIR.glob("*.arr")):
        text = path.read_text(encoding="utf-8")
        dim, forms = parse_text(text)
        inputs.append(Input(f"corpus-{path.stem}", dim, forms, text))
    return inputs


def build(workload: str, seed: int) -> Workload:
    """The inputs and the ordered command list of one round."""
    rng = random.Random(f"{workload}:{seed}")
    w = Workload(workload)
    if workload == "braid-tower":
        for n in (3, 4):
            forms = braid_forms(n, rng)
            w.inputs.append(Input(f"braid{n}", n + 1, forms, arrangement_text(n + 1, forms), "braid"))
            for command in ("lattice", "betti", "fibertype", "lgroups"):
                w.ops.append(Op(command, input_name=f"braid{n}"))
        w.ops += [Op("spf-pb", n=3), Op("spf-pb", n=4)]
    elif workload == "generic-fullposet":
        for count in (8, 9):
            forms = moment_forms(count, 4, rng)
            name = f"generic{count}"
            w.inputs.append(Input(name, 4, forms, arrangement_text(4, forms), "generic"))
            w.ops.append(Op("suspension", input_name=name, flags=("--full-poset",)))
    elif workload == "mixed-batch":
        w.inputs = corpus_inputs() + random_inputs(rng, RANDOM_BLOCKS)
        for inp in w.inputs:
            for command, *flags in FILE_COMMANDS:
                w.ops.append(Op(command, input_name=inp.name, flags=tuple(flags)))
        w.ops += [Op("braid", n=n) for n in range(1, 11)]
        w.ops += [Op("surgery-pb", n=n) for _ in range(SURGERY_REPEATS) for n in range(1, 11)]
        w.ops += [Op("spf-pb", n=n) for n in range(1, 4)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return w
