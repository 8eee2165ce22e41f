"""The package's public names: `__all__` lists exactly what it exports, and
each module uses every name it imports."""
import ast
import subprocess
import sys
from pathlib import Path

import blocksketch as bs


def test_all_is_unique_and_resolves():
    assert len(bs.__all__) == len(set(bs.__all__))
    missing = [name for name in bs.__all__ if not hasattr(bs, name)]
    assert missing == []


def test_removed_names_stay_removed():
    for name in ("certificate_check", "SampleMask"):
        assert name not in bs.__all__
        assert not hasattr(bs, name)


def test_modules_use_every_name_they_import():
    # names in annotations count as used; `from __future__` binds nothing
    unused = []
    for path in sorted(Path(bs.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_import_loads_only_the_package_and_the_standard_library(src_env):
    # the benchmark's setup_s times a cold `import blocksketch`; past numpy
    # and numpy.random, which numpy loads lazily and every draw needs, the
    # import may add the package's own modules and standard-library ones only
    code = ("import sys, numpy.random\n"
            "before = set(sys.modules)\n"
            "import blocksketch\n"
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], env=src_env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    added = out.stdout.split()
    assert "blocksketch.sdp" in added
    foreign = [m for m in added if m.split(".")[0] != "blocksketch"
               and m.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
