"""Import boundary: the package and each command load only the layers they run."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pgturan

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The public names: those the package exported when it imported every layer
# eagerly, less the helpers that only tests called.
PUBLIC = {
    "gf": ("FieldTable", "make_field"),
    "geometry": ("Geometry", "build_geometry", "parse_coords", "format_coords"),
    "structures": ("ArcRecord", "is_blocking_set", "max_blocking_set_size",
                   "secant_profile", "enumerate_complete_arcs",
                   "classify_up_to_collineation"),
    "covering": ("HittingSetResult", "MqReport", "PassantAnalysis", "min_hitting_set",
                 "m_of_arc", "compute_Mq", "passant_analysis", "verify_appendix"),
    "construction": ("PartitionSpec", "Hypergraph", "make_partition", "build_hypergraph",
                     "count_edges_exact", "displayed_lower_bound",
                     "contains_subgeometry"),
    "bounds": ("BoundPolynomial", "OptResult", "theorem1_lower", "theorem1_upper",
               "pg2_upper", "chromatic_lower", "corollary1_t", "theorem2_polynomial",
               "theorem3_polynomial", "optimize_bound", "reproduce_tables"),
}

# Runs `main(argv)` (or only the import, when argv is None) in a fresh
# interpreter and prints the exit code and the pgturan modules it loaded.
PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
import pgturan.cli
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = pgturan.cli.main(argv)
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "pgturan")]))
"""


def loaded_after(code: str, *args: str) -> tuple[int | None, set[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    exit_code, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    return exit_code, set(modules)


def layers_after(argv) -> tuple[int | None, set[str]]:
    code, modules = loaded_after(PROBE, json.dumps(argv))
    assert {"pgturan", "pgturan.cli"} <= modules
    return code, {m.removeprefix("pgturan.") for m in modules} - {"pgturan", "cli"}


def test_import_package_loads_no_submodule():
    _, modules = loaded_after(
        "import json, sys, pgturan; "
        "print(json.dumps([None, sorted(m for m in sys.modules if m.startswith('pgturan'))]))")
    assert modules == {"pgturan"}


def test_import_cli_loads_only_the_cli():
    _, modules = loaded_after(PROBE, "null")
    assert modules == {"pgturan", "pgturan.cli"}


def test_version_loads_no_layer():
    assert layers_after(["--version"]) == (0, set())


def test_geometry_command_loads_field_and_geometry_only():
    assert layers_after(["geometry", "--m", "2", "--q", "3"]) == (0, {"gf", "geometry"})


@pytest.mark.parametrize("target", ["appendix-a", "appendix-b"])
def test_appendix_does_not_load_catalog_or_optimizer(target):
    code, layers = layers_after(["verify", target])
    assert code == 0
    assert not layers & {"bounds", "construction", "verify"}, layers


def test_layers_load_neither_dataclasses_nor_inspect():
    # every command process would pay for both at startup
    code = ("import contextlib, io, json, sys\n"
            + "".join(f"import pgturan.{name}\n"
                      for name in (*PUBLIC, "refdata", "verify", "cli"))
            + "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = pgturan.cli.main(['verify', 'appendix-a'])\n"
              "print(json.dumps([code, sorted({'dataclasses', 'inspect'} & set(sys.modules))]))\n")
    assert loaded_after(code) == (0, set())


@pytest.mark.parametrize("given_M", [True, False])
def test_theorem3_loads_covering_only_to_search_M(given_M):
    argv = ["bounds", "--theorem", "3", "--q", "3"] + ["--M-value", "2"] * given_M
    code, layers = layers_after(argv)
    assert code == 0
    assert "bounds" in layers
    assert ("covering" in layers) is not given_M


def test_public_names_resolve_to_their_defining_modules():
    names = dir(pgturan)
    for module_name, public in PUBLIC.items():
        module = importlib.import_module(f"pgturan.{module_name}")
        for name in public:
            assert getattr(pgturan, name) is getattr(module, name), name
            assert name in names, name
    assert sorted(pgturan.__all__) == sorted(n for public in PUBLIC.values() for n in public)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pgturan.no_such_name
    # removed from the library: tests read g.pair_line[a][b]
    with pytest.raises(AttributeError, match="line_through"):
        pgturan.line_through


def test_submodule_loads_on_attribute_access():
    _, modules = loaded_after(
        "import json, sys, pgturan; assert pgturan.structures.bits; "
        "print(json.dumps([None, sorted(m for m in sys.modules if m.startswith('pgturan'))]))")
    assert modules == {"pgturan", "pgturan.structures", "pgturan.geometry", "pgturan.gf"}
