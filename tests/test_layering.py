"""Import layering of the package, read from the source with ``ast``:
``artin`` stands alone, ``series`` rests on ``artin`` only, ``symbolic`` on
``artin`` and ``series`` only, ``deformation`` does not reach into
``symbolic``, and the ring-table cache has one home.
Also: no module of the package imports sympy (only the test oracles do),
importing the CLI loads neither ``defo5.symbolic`` nor the process pool
(``multiprocessing``, ``concurrent.futures.process``), the catalog proof
chain leaves ``numpy.ma`` unloaded, and ``coeff-eqs`` runs and passes with
sympy blocked.  Importing the package caps OpenBLAS at one thread unless the
user or an earlier numpy import came first, and no module does the float or
``linalg`` work that would need more."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "defo5"


def _module(path):
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _package(path):
    return _module(path) if path.name == "__init__.py" else \
        _module(path).rpartition(".")[0]


def defo5_imports(path):
    """The defo5 modules that ``path`` imports, as absolute dotted names."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names if a.name.startswith("defo5"))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _package(path).split(".")
                base = base[:len(base) - node.level + 1]
                name = ".".join(base + ([node.module] if node.module else []))
            else:
                name = node.module or ""
            if name.split(".")[0] == "defo5":
                if node.module is None:  # from . import x
                    out.update(f"{name}.{a.name}" for a in node.names)
                else:
                    out.add(name)
    return out


def _subpackage(name):
    parts = name.split(".")
    return parts[1] if len(parts) > 1 else ""


def _files(sub):
    p = SRC / sub
    return sorted(p.rglob("*.py")) if p.is_dir() else [p.with_suffix(".py")]


@pytest.mark.parametrize("sub,allowed", [
    ("artin", {"artin"}),
    ("series", {"series", "artin"}),
    ("symbolic", {"symbolic", "artin", "series"}),
])
def test_lower_layers_import_only_below(sub, allowed):
    for path in _files(sub):
        for name in defo5_imports(path):
            assert _subpackage(name) in allowed, (path.name, name)


def test_deformation_does_not_import_symbolic():
    for path in _files("deformation"):
        for name in defo5_imports(path):
            assert _subpackage(name) != "symbolic", (path.name, name)


def test_cli_is_the_top_layer():
    """The CLI reads its floors from the library; no module reads the CLI."""
    for path in SRC.rglob("*.py"):
        if path.name != "cli.py":
            assert "defo5.cli" not in defo5_imports(path), path.name


def test_resolver_sees_relative_imports():
    assert "defo5.artin.rings" in defo5_imports(SRC / "artin" / "tables.py")
    assert "defo5.artin.tables" in defo5_imports(
        SRC / "deformation" / "proofchain.py")
    assert "defo5.series" in defo5_imports(SRC / "deformation" / "tangent.py")


def test_deformation_verdicts_need_no_elimination():
    """Tangent and obstruction verdicts come from closed-form certificates;
    GF(5) elimination serves only the tests and the benchmark."""
    for path in _files("deformation"):
        assert "defo5.gf5" not in defo5_imports(path), path.name


def test_one_table_cache():
    homes = {"def ring_table": set(), "_table_cache": set()}
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        for needle, found in homes.items():
            if needle in text:
                found.add(path.relative_to(SRC).as_posix())
    assert homes == {"def ring_table": {"artin/tables.py"},
                     "_table_cache": {"artin/tables.py"}}


def _run(code, env=None):
    env = dict(os.environ if env is None else env)
    path = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent)] + path)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_cli_import_leaves_sympy_unloaded():
    code = ("import sys, defo5.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'sympy' or m.startswith(('sympy.', 'defo5.symbolic'))))")
    assert _run(code).strip() == "[]"


def test_cli_import_leaves_the_process_pool_unloaded():
    code = ("import sys, defo5.cli; "
            "print(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures.process') if m in sys.modules))")
    assert _run(code).strip() == "[]"


def test_proof_chain_scan_leaves_numpy_ma_unloaded():
    """numpy's masked arrays (about 1 MB and 10-20 ms to import) come with a
    plain ``np.unique``; the catalog scan does without them."""
    code = ("import sys, defo5.cli; "
            "from defo5.deformation.proofchain import proof_chain_scan; "
            "assert proof_chain_scan(625)['passed']; "
            "print('numpy.ma' in sys.modules)")
    assert _run(code).strip() == "False"


def test_no_module_imports_sympy():
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "sympy" for n in names), path


_COEFF_EQS = """
import io, json, sys
from contextlib import redirect_stdout
if {blocked}:
    sys.modules["sympy"] = None  # any import of sympy raises ImportError
from defo5 import cli
out = io.StringIO()
with redirect_stdout(out):
    code = cli.main(["coeff-eqs", "--samples", "14"])
print(json.dumps({{"code": code,
                  "verdict": json.loads(out.getvalue())["verdict"],
                  "sympy": sorted(m for m, mod in sys.modules.items()
                                  if m.split(".")[0] == "sympy"
                                  and mod is not None)}}))
"""


@pytest.mark.parametrize("blocked", [True, False])
def test_coeff_eqs_runs_without_sympy(blocked):
    result = json.loads(_run(_COEFF_EQS.format(blocked=blocked)))
    assert result == {"code": 0, "verdict": "pass", "sympy": []}


_BLAS_PROBE = """
import json, os{first}
import defo5.cli
print(json.dumps([len(os.listdir("/proc/self/task")),
                  os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("preset,first,threads,variable", [
    (None, "", 1, "1"),             # the package's default: no idle pool
    ("2", "", None, "2"),           # the user's setting is kept
    (None, ", numpy", None, None),  # too late to matter: left untouched
])
def test_import_caps_openblas_threads(preset, first, threads, variable):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    count, got = json.loads(_run(_BLAS_PROBE.format(first=first), env))
    assert got == variable
    if threads is not None:
        assert count == threads


def test_no_module_does_float_work():
    """The one-thread OpenBLAS default in ``defo5/__init__.py`` rests on this:
    integer array work never reaches BLAS.  Verdicts stay exact too."""
    needles = ("linalg", "float32", "float64", "dtype=float", "astype(float")
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        found = [n for n in needles if n in text]
        assert not found, (
            f"{path.relative_to(SRC)} uses {found}: defo5 sets "
            "OPENBLAS_NUM_THREADS=1 on import because no module does float "
            "or BLAS work; revisit that default before adding any")
