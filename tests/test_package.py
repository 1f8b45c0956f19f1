"""The package's public surface and its source."""

import ast
from pathlib import Path

import jetsym


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
