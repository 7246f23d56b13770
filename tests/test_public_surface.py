"""The public surface: the README's library quick start and the names it promises."""

import keyword
import re
import types
from pathlib import Path

import ovalfront
from ovalfront import _kernels as kernels
from ovalfront import curves, harmonics, hyperbolic, specio, sphere, support, wavefront

README = (Path(__file__).parent.parent / "README.md").read_text()
LIBRARY = README[README.index("## Library quick start"):README.index("## CLI")]


def test_readme_quick_start_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", LIBRARY, re.S)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert int(lines[1]) >= 4 and lines[3] == "True"


def test_every_exported_name_resolves():
    # both ways: each name in __all__ resolves, and each public name is in __all__
    for module in (ovalfront, kernels):
        assert len(set(module.__all__)) == len(module.__all__)
        public = {name for name, value in vars(module).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert public == set(module.__all__), module.__name__


def test_library_paragraph_names_exported_functions_and_real_fields():
    prose = LIBRARY.rsplit("```", 1)[-1]
    names = {token.split(".")[-1]
             for token in re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", prose)}
    modules = (curves, harmonics, hyperbolic, specio, sphere, support, wavefront)
    functions = {name for name in names
                 if any(callable(getattr(m, name, None)) for m in modules)}
    assert {"critical_time", "propagate", "propagate_front"} <= functions
    assert functions <= set(ovalfront.__all__)
    # every other name is a field or method of a curve or a front
    oval = ovalfront.unit_circle(64)
    curve = ovalfront.hyperbolic_circle(0.8, n_samples=64)
    samples = (oval, ovalfront.propagate(oval, 0.1), curve,
               ovalfront.propagate(curve, 0.1))
    for name in names - functions:
        assert keyword.iskeyword(name) or any(hasattr(s, name) for s in samples), name
