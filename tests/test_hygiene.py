"""Library surface hygiene: every exported name resolves, no module
under ``src/formlab`` imports a name it never uses or re-exports, and a
run loads only the layers its suite calls."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import formlab

SRC = Path(formlab.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in formlab.__all__ if not hasattr(formlab, name)]
    assert not missing
    assert len(set(formlab.__all__)) == len(formlab.__all__)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module (at any depth),
    ``from __future__`` excepted."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotation_names(node) -> set[str]:
    """Names inside an annotation, including string (forward) ones."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, in annotations, or listed in
    ``__all__`` (re-exported)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os\nfrom .x import a, b as c\n__all__ = ['a']\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"os", "c"}


SPECTRUM_ABSENT = ["numpy", "formlab.identities", "formlab.sampling",
                   "formlab.curvature", "concurrent.futures"]
# a block eigenvalue off by one fails the spectral certificate
SHIFT_THETA = ("import formlab.spectral as sp\n"
               "real = sp.ball_reference_eigenvalue\n"
               "sp.ball_reference_eigenvalue = lambda *a: real(*a) + 1\n")


@pytest.mark.parametrize("suite,absent,patch,want,jobs", [
    pytest.param("spectrum", SPECTRUM_ABSENT, "", 0, 1, id="spectrum-absent0"),
    pytest.param("bounds", ["numpy", "formlab.curvature"], "", 0, 1, id="bounds-absent1"),
    pytest.param("verify", ["formlab.curvature"], "", 0, 1, id="verify-absent"),
    pytest.param("curvature", ["numpy", "formlab.identities"], "", 0, 1,
                 id="curvature-absent"),
    pytest.param("spectrum", SPECTRUM_ABSENT, SHIFT_THETA, 1, 1,
                 id="spectrum-failed-certificate"),
    # forked workers, not a pool: at dimensions 2 and 3 the spectrum has
    # three (m, p) groups, so --jobs 2 forks one worker; numpy loads only
    # in the worker that runs the quadrature oracle, a forked one
    pytest.param("all", ["concurrent.futures", "numpy"], "", 0, 2, id="all-jobs2"),
    pytest.param("spectrum", SPECTRUM_ABSENT, "", 0, 2, id="spectrum-jobs2"),
])
def test_run_loads_only_its_layers(tmp_path, suite, absent, patch, want, jobs):
    dims = "2" if jobs == 1 else "2,3"
    child = ("import sys\n"
             + patch +
             "from formlab.cli import main\n"
             f"code = main([{suite!r}, '--dim', {dims!r}, '--lmax', '1', "
             f"'--jobs', '{jobs}', '--out', {str(tmp_path)!r}])\n"
             f"assert code == {want}, code\n"
             f"print(sorted(m for m in {absent!r} if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
