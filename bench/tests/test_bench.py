"""Tests of the benchmark's own parts: the output checks agree with the
program on correct outputs and reject tampered ones, the random templates
have the fiber-type status they claim, and the clock and tracer
arithmetic is right.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from clock import NOMINAL_KERNEL_S, Clock  # noqa: E402
from tracer import Tracer  # noqa: E402

from arrcomp.cli import run  # noqa: E402


def run_ops(workload: inputs.Workload, tmp_path: Path) -> list:
    paths = {}
    for inp in workload.inputs:
        path = tmp_path / f"{inp.name}.arr"
        path.write_text(inp.text, encoding="utf-8")
        paths[inp.name] = str(path)
    results = []
    for op in workload.ops:
        argv = op.argv(paths.__getitem__)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        results.append([argv, code, out.getvalue(), err.getvalue()])
    return results


def small_workload() -> inputs.Workload:
    """Corpus, one block of random inputs, small braid and generic inputs,
    and the count commands at small n."""
    rng = random.Random(7)
    w = inputs.Workload("small")
    w.inputs = inputs.corpus_inputs() + inputs.random_inputs(rng, 1)
    for n in (2, 3):
        forms = inputs.braid_forms(n, rng)
        w.inputs.append(inputs.Input(f"braid{n}", n + 1, forms,
                                     inputs.arrangement_text(n + 1, forms), "braid"))
    forms = inputs.moment_forms(5, 3, rng)
    w.inputs.append(inputs.Input("generic5", 3, forms, inputs.arrangement_text(3, forms), "generic"))
    for inp in w.inputs:
        commands = inputs.FILE_COMMANDS
        if inp.template == "generic":
            commands = (("betti",), ("suspension", "--full-poset"))
        for command, *flags in commands:
            w.ops.append(inputs.Op(command, input_name=inp.name, flags=tuple(flags)))
    for command in ("braid", "surgery-pb", "spf-pb"):
        w.ops += [inputs.Op(command, n=n) for n in (1, 2, 3)]
    return w


@pytest.fixture(scope="module")
def checked(tmp_path_factory):
    w = small_workload()
    results = run_ops(w, tmp_path_factory.mktemp("inputs"))
    return w, results, checks.check_ops(w, results)


def test_checks_agree_with_the_program(checked):
    w, _, reasons = checked
    unexpected = [(op, why) for op, why in zip(w.ops, reasons) if why and why != checks.KNOWN_FAULT]
    assert unexpected == []


def test_known_fault_counts_as_failed_without_aborting(checked):
    w, _, reasons = checked
    faults = [op for op, why in zip(w.ops, reasons) if why == checks.KNOWN_FAULT]
    expected = [
        op for op in w.ops
        if op.command == "lgroups" and not checks.Expect(w.input(op.input_name)).fiber_type
    ]
    assert faults == expected and faults
    assert len(reasons) == len(w.ops)
    last_fault = max(i for i, why in enumerate(reasons) if why == checks.KNOWN_FAULT)
    assert reasons[last_fault + 1] == ""


def _tamper(results, w, command, edit):
    index = next(i for i, op in enumerate(w.ops) if op.command == command)
    tampered = [list(r) for r in results]
    tampered[index][2] = edit(tampered[index][2])
    return index, tampered


def _edit_result(change):
    def edit(stdout):
        envelope = json.loads(stdout)
        change(envelope["result"])
        return json.dumps(envelope)

    return edit


def _drop_schema(stdout):
    envelope = json.loads(stdout)
    del envelope["schema"]
    return json.dumps(envelope)


@pytest.mark.parametrize("command, edit", [
    ("betti", _edit_result(lambda r: r["betti"].__setitem__(1, r["betti"][1] + 1))),
    ("charpoly", _drop_schema),
    ("lattice", _edit_result(lambda r: r["flats"][-1].__setitem__("mobius", 0))),
    ("surgery-pb", _edit_result(lambda r: r["table"][2].__setitem__("torsion", [4]))),
    ("spf-pb", lambda stdout: ""),
])
def test_tampered_output_counts_as_failed(checked, command, edit):
    w, results, _ = checked
    index, tampered = _tamper(results, w, command, edit)
    reasons = checks.check_ops(w, tampered)
    assert reasons[index] not in ("", checks.KNOWN_FAULT)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_templates_have_their_fiber_type_status(seed):
    for inp in inputs.random_inputs(random.Random(seed), 1):
        expect = checks.Expect(inp)
        assert expect.fiber_type == (inp.template in inputs.FIBER_TYPE_TEMPLATES), inp.name


def test_inputs_depend_only_on_the_seed():
    for name in inputs.WORKLOADS:
        a, b = inputs.build(name, 5), inputs.build(name, 5)
        assert [i.text for i in a.inputs] == [i.text for i in b.inputs]
        assert a.ops == b.ops
    assert [i.text for i in inputs.build("mixed-batch", 5).inputs] != [
        i.text for i in inputs.build("mixed-batch", 6).inputs
    ]


def test_braid_and_generic_closed_forms():
    rng = random.Random(1)
    braid = inputs.Input("b", 4, inputs.braid_forms(3, rng), "", "braid")
    expect = checks.Expect(braid)
    assert expect.betti == [1, 6, 11, 6, 0]
    assert expect.chi == [0, -6, 11, -6, 1]
    assert expect.flat_counts == {0: 1, 1: 6, 2: 7, 3: 1}
    generic = inputs.Input("g", 4, inputs.moment_forms(8, 4, rng), "", "generic")
    assert checks.Expect(generic).betti == [1, 8, 28, 56, 35]
    whitney = checks.Geometry(4, generic.forms)
    assert [abs(c) for c in reversed(whitney.chi)] == [1, 8, 28, 56, 35]


def test_clock_region_rescales_by_the_kernel():
    clock = Clock()
    slow = 2 * NOMINAL_KERNEL_S
    clock.samples = [(0.0, slow), (1.0, 1.0 + slow), (3.0, 3.0 + slow)]
    raw, calibrated, kernel = clock.region(0, 2)
    assert raw == pytest.approx(3.0 - 2 * slow)
    assert calibrated == pytest.approx(raw / 2)
    assert kernel == pytest.approx(slow)


def test_tracer_self_times_subtract_children():
    clock = Clock()
    tracer = Tracer(clock)
    tracer.spans = [
        ["cli.run", 0.0, 10.0, -1, 0.5],
        ["arrangement.poset", 1.0, 7.0, 0, 0.0],
        ["linalg.rref", 2.0, 4.0, 1, 0.0],
    ]
    times = tracer.self_times()
    assert times["cli.run"] == pytest.approx(3.5)
    assert times["arrangement.poset"] == pytest.approx(4.0)
    assert times["linalg.rref"] == pytest.approx(2.0)
    assert times["arrangement.poset_inclusive"] == pytest.approx(6.0)


def test_tracer_install_records_library_calls_and_restores():
    import arrcomp.cli as cli
    import arrcomp.lattice as lattice

    original = lattice.intersection_poset
    tracer = Tracer(Clock())
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["--json", "spf-pb", "2"]) == 0
    finally:
        tracer.uninstall()
    assert lattice.intersection_poset is original and tracer.missing == []
    layers = {span[0] for span in tracer.spans}
    assert {"surgery.spf", "lattice.fiber_type", "arrangement.poset", "linalg.rref"} <= layers
    assert tracer.counts["arrangement.flats"] == 5
