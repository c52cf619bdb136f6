"""What a command loads: the SDP commands and the Anderson commands whose
blocks all fit `eigensolver.NUMPY_CAP` import neither scipy.linalg nor
scipy.sparse, and an Anderson bound with a larger block still loads both.
`import certground` loads none of its submodules, and each subcommand loads
only the certground modules it runs.

Each check starts a fresh interpreter, since this test process has imported
both long ago.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import contextlib, io, json, sys

def loaded():
    return [name for name in ("scipy.linalg", "scipy.sparse") if name in sys.modules]

import certground
from certground import cli
seen = {"import certground": [0, loaded()]}
for argv in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv.split())
    seen[argv] = [code, loaded(), out.getvalue()]
print(json.dumps(seen))
"""

SDP_COMMANDS = (
    "moment --model heisenberg --l 3",
    "marginal --model heisenberg --m 5 --s 2",
    "marginal --model heisenberg --m 6 --s 2",
    "sandwich --model heisenberg --moment-l 3 --marginal m=5,s=2",
    "marginal --model random_twosite --params 3 --m 4 --s 2",
    "moment --model random_twosite --params 3 --l 3",
)

# blocks of at most 236 states: numpy alone builds, solves and proves them
SMALL_ANDERSON = (
    "anderson --model heisenberg --m 10",
    "anderson --model heisenberg --dim 2 --m 3",
    "sweep --method anderson --model heisenberg --m 2..11",
)


def probe(*argv) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_sdp_commands_load_neither_scipy_linalg_nor_sparse():
    seen = probe(*SDP_COMMANDS)
    assert seen["import certground"] == [0, []]
    for argv in SDP_COMMANDS:
        code, loaded, _ = seen[argv]
        assert (argv, code, loaded) == (argv, 0, [])


def test_small_anderson_commands_load_neither_and_prove():
    seen = probe(*SMALL_ANDERSON)
    for argv in SMALL_ANDERSON:
        code, loaded, out = seen[argv]
        assert (argv, code, loaded) == (argv, 0, [])
        doc = json.loads(out)
        for row in doc.get("rows", [doc]):
            assert row["certified"] is True


def test_anderson_still_loads_scipy_and_proves():
    # the S^z = 0 block of m = 13 has 868 states, above NUMPY_CAP
    argv = "anderson --model heisenberg --m 13"
    code, loaded, out = probe(argv)[argv]
    assert code == 0
    assert loaded == ["scipy.linalg", "scipy.sparse"]
    doc = json.loads(out)
    assert doc["diagnostics"]["sector_dim"] == 868
    assert doc["certified"] is True
    assert doc["diagnostics"]["minimality"] == "cholesky"


# the names that `certground` exports, each from the module that defines it
EXPORTS = {
    "anderson": ("anderson_bound", "anderson_formula", "guarantee_formula"),
    "eigensolver": ("EigResult", "min_eig", "min_eig_lanczos"),
    "marginal": ("MarginalProblemSpec", "build_marginal_sdp", "improved_anderson_bound"),
    "models": ("ModelSpec", "PatchSpec", "build_patch", "builtin_model", "parse_model"),
    "moment": ("ti_moment_bound",),
    "reports": ("BoundReport",),
    "sdp": ("SdpProblem", "SdpSolution", "solve"),
    "upper": ("product_state_upper", "ring_reference"),
}

RUN = """
import contextlib, io
from certground import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run({argv!r}.split()) == 0
"""


def submodules(code: str) -> set:
    """The certground submodules that a fresh interpreter has loaded after `code`."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    report = "\nimport sys\nprint(*[n for n in sys.modules if n.startswith('certground.')])"
    done = subprocess.run([sys.executable, "-c", code + report], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return set(done.stdout.split())


def test_import_certground_loads_no_submodule():
    assert submodules("import certground") == set()


def test_builtin_model_loads_models_alone():
    assert submodules("from certground import builtin_model") == {"certground.models"}


def test_anderson_command_loads_no_sdp_module():
    loaded = submodules(RUN.format(argv="anderson --model heisenberg --m 10"))
    assert "certground.anderson" in loaded
    assert loaded.isdisjoint({"certground.sdp", "certground.moment", "certground.pauli",
                              "certground.marginal"})


def test_moment_command_loads_no_anderson_module():
    loaded = submodules(RUN.format(argv="moment --model heisenberg --l 3"))
    assert "certground.moment" in loaded
    assert loaded.isdisjoint({"certground.anderson", "certground.marginal"})


def test_exports_are_their_home_modules_objects():
    import certground
    assert sorted(certground.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for home, names in EXPORTS.items():
        module = importlib.import_module(f"certground.{home}")
        assert getattr(certground, home) is module
        for name in names:
            assert getattr(certground, name) is getattr(module, name)
            assert name in dir(certground)
    assert not hasattr(certground, "no_such_name")
