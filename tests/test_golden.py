"""The benchmark's golden outputs, guarded in-process by the benchmark's own checks.

Each command of `perfbench/golden/cli.json` must exit with its recorded code
and print stdout with its recorded SHA-256.  The `catalog` and `search`
workloads of `perfbench/workloads.py` run here, and their checks must pass
on every operation.  A traced pass of each, through `perfbench/tracer.py`,
must also pass the self-test of `perfbench/run.py`: every layer the
workload should exercise is reached and every boundary is patched.  The
perfbench modules are loaded from their files and never changed.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from pgturan import bounds
from pgturan.cli import main
from pgturan.geometry import build_geometry
from pgturan.structures import arcs_equivalent

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads, tracer, run = _load("workloads"), _load("tracer"), _load("run")
CLI_GOLDEN = json.loads((PERFBENCH / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_cli_output_matches_golden(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    want = CLI_GOLDEN[command]
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want["exit"], want["sha256"])


def test_verify_all_matches_golden(monkeypatch):
    calls = []
    golden_max = bounds._golden_max
    monkeypatch.setattr(bounds, "_golden_max", lambda *a: calls.append(a) or golden_max(*a))
    w = workloads.Catalog()
    assert w.check(w.run(w.prepare(1), {})) == (75, [])
    # 17 table rows search one segment each; the 5 catalog planes each run
    # 400 rounds of two line searches
    assert len(calls) == 17 + 5 * 800


def test_search_matches_golden():
    w = workloads.Search()
    for seed in (1, 7):
        assert w.check(w.run(w.prepare(seed), {})) == (273, [])


def traced_pass(name):
    """One pass of the workload under the tracer: its check and the self-test's problems."""
    w = workloads.WORKLOADS[name]()
    inputs = w.prepare(1)
    build_geometry.cache_clear()  # a warm cache would leave gf.make_field unreached
    t = tracer.Tracer()
    t.install()
    try:
        outputs = w.run(inputs, {})
    finally:
        t.uninstall()
    # the import happened long before; any positive time keeps cli.import_s nonzero
    layers = tracer.layer_metrics([t.record(import_s=1e-3)])
    return w.check(outputs), run.self_test(name, layers, t.missed)


@pytest.mark.parametrize("name, operations", [("catalog", 75), ("search", 273)])
def test_traced_pass_reaches_every_layer(name, operations):
    assert traced_pass(name) == ((operations, []), [])


def test_self_test_reports_a_bypassed_layer(monkeypatch):
    # a classifier holding the untraced arcs_equivalent: right classes, no spans
    def pairwise(g, masks):
        classes = []
        for m in masks:
            cls = next((c for c in classes if arcs_equivalent(g, c[0], m)), None)
            if cls is None:
                classes.append([m])
            else:
                cls.append(m)
        return classes

    monkeypatch.setattr("pgturan.covering.classify_up_to_collineation", pairwise)
    checked, problems = traced_pass("catalog")
    assert checked == (75, [])
    assert problems == ["structures.classify_s is 0 on catalog",
                        "structures.equiv_tests is 0 on catalog"]
