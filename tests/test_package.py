"""The package's public surface and its source."""

import ast
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jetsym
from jetsym import analysis, errors, hierarchy, operators, systems, varcalc

#: the result records: immutable named tuples that compare by value
RECORDS = (
    varcalc.ExactnessCertificate, operators.OpTerm, systems.EvolutionSystem, systems.Token,
    hierarchy.StepCertificates, hierarchy.TriangularCoeffs, hierarchy.Hierarchy,
    hierarchy.StructuralForm, analysis.SymmetryCheck, analysis.CommutativityTable,
    analysis.DensityClassification, analysis.DensityAnsatz, analysis.TrivialDensity,
    analysis.DensityReport, analysis.SubstitutionReport, analysis.CheckResult,
    analysis.VerificationReport,
)


def test_every_exported_name_resolves():
    missing = [name for name in jetsym.__all__ if not hasattr(jetsym, name)]
    assert not missing
    assert len(set(jetsym.__all__)) == len(jetsym.__all__)


def test_no_assert_statements():
    # python -O strips assert statements, so an internal cross-check must raise
    modules = sorted(Path(jetsym.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found


def _trees(*dirs):
    return [ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted(Path(d).glob("*.py"))]


def test_every_error_is_raised():
    # an exception class that nothing raises is API no computation uses
    raised = set()
    for tree in _trees(Path(jetsym.__file__).parent):
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.JetsymError)}
    assert len(classes) > 10
    assert classes - raised == {"JetsymError"}


def test_every_error_field_is_read():
    # each attribute an exception's __init__ stores is read somewhere
    stored = {target.attr
              for node in ast.walk(ast.parse(Path(errors.__file__).read_text(encoding="utf-8")))
              if isinstance(node, ast.FunctionDef) and node.name == "__init__"
              for assign in ast.walk(node) if isinstance(assign, ast.Assign)
              for target in assign.targets
              if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
              and target.value.id == "self"}
    assert len(stored) > 5
    read = {node.attr
            for tree in _trees(Path(jetsym.__file__).parent, Path(__file__).parent)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert stored - read == set()


def _names_read(tree) -> set:
    """The names a module reads, as a name or an attribute, outside the
    definition of the function or class of that name."""
    read = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in enclosing:
                read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)
    visit(tree, frozenset())
    return read


def test_every_public_name_is_used_or_documented():
    # an exported name that no module of the package reads is API only a
    # caller uses, so README's Library section must name it
    package = Path(jetsym.__file__).parent
    read = set().union(*(_names_read(ast.parse(path.read_text(encoding="utf-8")))
                         for path in sorted(package.glob("*.py"))
                         if path.name != "__init__.py"))
    readme = package.parent.parent / "README.md"
    library = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    library = library.split("\n## ", 1)[0]
    assert [name for name in jetsym.__all__
            if name not in read and not re.search(rf"\b{name}\b", library)] == []


def test_source_parses_at_the_declared_python_floor():
    # pyproject.toml's requires-python is the oldest grammar the package may use
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      pyproject.read_text(encoding="utf-8"), re.MULTILINE)
    assert floor, "pyproject.toml declares no requires-python floor"
    version = (int(floor[1]), int(floor[2]))
    modules = sorted(Path(jetsym.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=version)


def test_benchmark_probe_points_exist():
    # the traced benchmark wraps these attributes; a rename would only show
    # when the benchmark itself runs
    import importlib.util
    import sys

    from jetsym import analysis, operators, varcalc
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    saved_path, had_workloads = list(sys.path), "workloads" in sys.modules
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("_probe_tracing", bench / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
    finally:
        sys.path[:] = saved_path
        if not had_workloads:
            sys.modules.pop("workloads", None)
    missing = [span for owner, attr, span, _ in tracing.LAYER_BOUNDARIES
               if not hasattr(owner, attr)]
    assert len(tracing.LAYER_BOUNDARIES) >= 20 and not missing
    assert operators.integrate_dx is analysis.integrate_dx is varcalc.integrate_dx


def test_readme_library_example_runs():
    # the documented example runs as written, so it cannot drift from the API
    readme = Path(__file__).resolve().parent.parent / "README.md"
    library = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = library.split("```python\n", 1)[1].split("```", 1)[0]
    assert "fs_hierarchy" in example
    exec(compile(example, str(readme), "exec"), {})


def test_import_leaves_out_dataclasses_and_inspect():
    # importing dataclasses, and inspect through it, costs about as much as
    # the rest of jetsym's start-up; -S keeps site-packages from importing
    # either before jetsym does
    src = str(Path(jetsym.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import jetsym; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"


def test_records_are_listed():
    modules = (varcalc, operators, systems, hierarchy, analysis)
    found = {obj for mod in modules for obj in vars(mod).values()
             if isinstance(obj, type) and issubclass(obj, tuple)
             and obj.__module__ == mod.__name__ and not obj.__name__.startswith("_")}
    assert found == set(RECORDS)


def _record(cls, first):
    """A record of fresh, hashable field values, ``first`` first;
    EvolutionSystem, which checks its rhs against its depvars, gets empty
    ones."""
    fields = {name: Fraction(i + 1, 3) for i, name in enumerate(cls._fields)}
    if cls is systems.EvolutionSystem:
        fields.update(depvars=(), rhs=())
    return cls(**{**fields, cls._fields[0]: first})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_an_immutable_value(cls):
    a, b = _record(cls, "first"), _record(cls, "".join(("fir", "st")))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != _record(cls, "other")
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls._fields)
    assert repr(a) == f"{cls.__name__}({shown})"
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        a.extra = None
