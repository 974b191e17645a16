"""Library surface hygiene: every exported name resolves; no module
under ``src/formlab`` imports a name it never uses or re-exports, or
imports ``dataclasses``; only ``quadrature`` and ``ball`` name
``integrate_pairs``, and ``identities`` imports nothing from
``quadrature``; ``ball`` and ``cli`` import ``quadrature`` only where
they integrate, and only ``quadrature`` and ``sampling`` name
``RadialDensity``; every function the library defines is called in it or
exported; every method of a library class is read as an attribute, and
every module-level def or class named, somewhere in the library, its
tests or its benchmark, or exported; importing the package loads no
layer; a run loads only the layers its suite calls; and the README's
layout names every module."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import formlab

SRC = Path(formlab.__file__).parent
ROOT = Path(__file__).parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in formlab.__all__ if not hasattr(formlab, name)]
    assert not missing
    assert len(set(formlab.__all__)) == len(formlab.__all__)
    assert sorted(formlab.__all__) == sorted(formlab._LAZY)
    # a name listed under two modules would resolve through only one
    assert sum(map(len, formlab._LAZY_MODULES.values())) == len(formlab._LAZY)


def test_package_import_loads_no_layer():
    child = ("import sys\nimport formlab\n"
             "print(sorted(m for m in sys.modules if m.startswith('formlab.')))\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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
    an ``__all__`` list or tuple literal (re-exported); an ``__all__``
    built by an expression re-exports no name the checker can see."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)) \
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_no_module_imports_dataclasses():
    # a dataclass costs the import of dataclasses (with inspect, ast and
    # dis) and the exec of its generated methods at every start-up
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if (isinstance(node, ast.Import) and any(
                 alias.name.split(".")[0] == "dataclasses" for alias in node.names))
             or (isinstance(node, ast.ImportFrom) and node.level == 0
                 and node.module.split(".")[0] == "dataclasses")]
    assert not found, f"dataclasses imported at {found}"


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os\nfrom .x import a, b as c\n__all__ = ['a']\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"os", "c"}
    # an __all__ that is not a literal lists nothing the checker can read
    tree = ast.parse("from .x import a, b\n_T = {'b': 1}\n__all__ = sorted(_T)\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"a", "b"}


def _names_and_quadrature_imports(tree: ast.Module) -> tuple[set[str], list[int]]:
    """Every identifier a module names (``Name``, ``Attribute`` and
    imported names), and the lines of its imports from ``quadrature``."""
    names, lines = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
            if (node.module or "").split(".")[-1] == "quadrature" or any(
                    alias.name == "quadrature" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
            lines += [node.lineno for alias in node.names
                      if alias.name.split(".")[-1] == "quadrature"]
    return names, lines


def test_identities_integrate_through_the_domain():
    # the domain is the one place that knows how to integrate over itself
    found = {path.name: _names_and_quadrature_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert sorted(name for name, (names, _) in found.items()
                  if "integrate_pairs" in names) == ["ball.py", "quadrature.py"]
    assert found["identities.py"][1] == []


def test_checker_flags_integration_outside_the_domain():
    names, lines = _names_and_quadrature_imports(ast.parse(
        "from .quadrature import integrate_pairs\nfrom . import quadrature as q\n"
        "import formlab.quadrature\nq.integrate_pairs([], 1)\n"))
    assert "integrate_pairs" in names and lines == [1, 2, 3]


def _scope_of_lines(tree: ast.Module, lines) -> list[str]:
    """The dotted name of the innermost class or function around each
    line, ``"<module>"`` at the top level."""
    def scopes(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                yield child.lineno, child.end_lineno, name
                yield from scopes(child, name + ".")
            else:
                yield from scopes(child, prefix)
    spans = list(scopes(tree, ""))
    return [max(((lo, name) for lo, hi, name in spans if lo <= line <= hi),
                default=(0, "<module>"))[1] for line in lines]


# Where each module may import quadrature: a spectrum run loads ball and
# cli but no quadrature, and only the domain's integrals and the Monte
# Carlo oracle integrate.
QUADRATURE_IMPORT_SCOPES = {
    "ball.py": {"BallDomain.interior", "BallDomain.boundary"},
    "cli.py": {"_quadrature_oracle"},
}


@pytest.mark.parametrize("module", sorted(QUADRATURE_IMPORT_SCOPES))
def test_quadrature_imported_only_where_it_integrates(module):
    tree = ast.parse((SRC / module).read_text())
    _, lines = _names_and_quadrature_imports(tree)
    scopes = _scope_of_lines(tree, lines)
    assert set(scopes) <= QUADRATURE_IMPORT_SCOPES[module], dict(zip(lines, scopes))


def test_radial_densities_stay_in_quadrature_and_sampling():
    # weights are polynomials; a radial density is only the oracle's integrand
    naming = [path.name for path in sorted(SRC.glob("*.py"))
              if "RadialDensity" in _names_and_quadrature_imports(
                  ast.parse(path.read_text()))[0]]
    assert naming == ["quadrature.py", "sampling.py"]


def test_checker_finds_the_scope_of_an_import():
    tree = ast.parse("from .quadrature import a\nclass C:\n    def f(self):\n"
                     "        from .quadrature import b\n\n"
                     "def g():\n    from . import quadrature\n")
    _, lines = _names_and_quadrature_imports(tree)
    assert dict(zip(lines, _scope_of_lines(tree, lines))) == \
        {1: "<module>", 4: "C.f", 7: "g"}


# functions kept in the library though nothing in it calls them
UNREFERENCED_ALLOWED = {
    # the README lists polynomial charts as a library feature
    "from_polynomials",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names_read(trees) -> tuple[set[str], set[str]]:
    """The ids of every ``Name`` and the attributes of every
    ``Attribute`` in the trees."""
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def _unreferenced_functions(trees: dict[str, ast.Module], exported) -> list[str]:
    """``module:line:name`` of every function or method, dunders aside,
    whose name no ``Name`` or ``Attribute`` in any of the modules reads
    and that is not exported."""
    referenced = set(exported).union(*_names_read(trees.values()))
    return [f"{module}:{node.lineno}:{node.name}"
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not _is_dunder(node.name) and node.name not in referenced]


def test_every_function_is_referenced_or_exported():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    unreferenced = [where for where in _unreferenced_functions(trees, formlab.__all__)
                    if where.rsplit(":", 1)[1] not in UNREFERENCED_ALLOWED]
    assert not unreferenced, f"defined but never called nor exported: {unreferenced}"


def test_checker_flags_an_unreferenced_function():
    tree = ast.parse("def a(): b()\ndef b(): pass\ndef c(): pass\n"
                     "def d(): pass\nclass K:\n    def __len__(self): return 0\n"
                     "    def e(self): self.a\n")
    assert _unreferenced_functions({"m.py": tree}, ["d"]) == ["m.py:3:c", "m.py:7:e"]


def _orphans(library: dict[str, ast.Module], readers, exported) -> list[str]:
    """``module:line:name`` of every module-level def or class of the
    library that no ``Name`` or ``Attribute`` in the readers names and
    that is not exported, and ``module:line:Class.method`` of every
    method of a module-level class that no ``Attribute`` in the readers
    reads; dunders aside."""
    names, attrs = _names_read(readers)
    named = names | attrs | set(exported)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for module, tree in library.items():
        for node in tree.body:
            if not isinstance(node, defs) or _is_dunder(node.name):
                continue
            if node.name not in named:
                out.append(f"{module}:{node.lineno}:{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{module}:{sub.lineno}:{node.name}.{sub.name}" for sub in node.body
                        if isinstance(sub, defs[:2]) and not _is_dunder(sub.name)
                        and sub.name not in attrs]
    return out


def test_every_library_name_is_read_somewhere():
    library = {path.name: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py"))}
    readers = list(library.values()) + [
        ast.parse(path.read_text(), filename=str(path))
        for folder in ("tests", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))]
    orphans = _orphans(library, readers, formlab.__all__)
    assert not orphans, f"defined but never read in src, tests or perfbench: {orphans}"


def test_checker_flags_an_orphan():
    lib = ast.parse("def a(): pass\ndef b(): pass\ndef __getattr__(n): pass\n"
                    "class K:\n    def __len__(self): return 0\n"
                    "    def m(self): pass\n    def n(self): pass\n"
                    "class L:\n    def o(self): pass\n")
    # a method counts only when read as an attribute, not by its bare name
    reader = ast.parse("a()\nK().m()\nn = 1\no = L\n")
    assert _orphans({"lib.py": lib}, [lib, reader], ["L"]) == \
        ["lib.py:2:b", "lib.py:7:K.n", "lib.py:9:L.o"]


SPECTRUM_ABSENT = ["numpy", "formlab.identities", "formlab.sampling",
                   "formlab.curvature", "formlab.quadrature", "concurrent.futures",
                   "dataclasses"]
# the proof-chain replays of the bounds suite integrate, so it loads
# identities and quadrature
BOUNDS_ABSENT = ["numpy", "formlab.sampling", "formlab.curvature", "dataclasses"]
# a block eigenvalue off by one fails the spectral certificate
SHIFT_THETA = ("import formlab.spectral as sp\n"
               "real = sp.ball_reference_eigenvalue\n"
               "sp.ball_reference_eigenvalue = lambda *a: real(*a) + 1\n")


@pytest.mark.parametrize("suite,absent,patch,want,jobs", [
    pytest.param("spectrum", SPECTRUM_ABSENT, "", 0, 1, id="spectrum-absent0"),
    pytest.param("bounds", BOUNDS_ABSENT, "", 0, 1, id="bounds-absent1"),
    pytest.param("verify", ["formlab.curvature", "dataclasses"], "", 0, 1, id="verify-absent"),
    pytest.param("curvature", ["numpy", "formlab.identities", "dataclasses"], "", 0, 1,
                 id="curvature-absent"),
    pytest.param("spectrum", SPECTRUM_ABSENT, SHIFT_THETA, 1, 1,
                 id="spectrum-failed-certificate"),
    # forked workers, not a pool: at dimensions 2 and 3 the spectrum has
    # three (m, p) groups, so --jobs 2 forks one worker; numpy loads only
    # in the worker that runs the quadrature oracle, a forked one
    pytest.param("all", ["concurrent.futures", "numpy", "dataclasses"], "", 0, 2,
                 id="all-jobs2"),
    pytest.param("spectrum", SPECTRUM_ABSENT, "", 0, 2, id="spectrum-jobs2"),
    pytest.param("bounds", BOUNDS_ABSENT, "", 0, 2, id="bounds-jobs2"),
])
def test_run_loads_only_its_layers(tmp_path, suite, absent, patch, want, jobs):
    # only modules that the interpreter had not loaded before formlab count
    dims = "2" if jobs == 1 else "2,3"
    child = ("import sys\n"
             "before = set(sys.modules)\n"
             + patch +
             "from formlab.cli import main\n"
             f"code = main([{suite!r}, '--dim', {dims!r}, '--lmax', '1', "
             f"'--jobs', '{jobs}', '--out', {str(tmp_path)!r}])\n"
             f"assert code == {want}, code\n"
             f"print(sorted(m for m in {absent!r} if m in sys.modules and m not in before))\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _layout_modules(readme: str) -> set[str]:
    """The ``*.py`` names listed under ``src/formlab/`` in the README's
    layout block."""
    block = readme.split("## Layout", 1)[1].split("```")[1]
    return {line.split()[0] for line in block.splitlines()
            if line.startswith("  ") and line.split()[0].endswith(".py")}


def test_readme_layout_names_every_module():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    modules = {path.name for path in SRC.glob("*.py")} - {"__init__.py"}
    assert modules - _layout_modules(readme) == set()
