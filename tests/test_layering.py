"""The modules of ``irrkatz`` form a stack: each imports only modules
below it in ``LAYERS``, at module level and inside functions alike, so
no import reaches back up the pipeline."""

import ast
from pathlib import Path

import irrkatz

SRC = Path(irrkatz.__file__).resolve().parent
LAYERS = (
    "scalar", "polys", "weylalg", "lattice", "exponents", "formal", "rootsys", "reduce", "corpus",
    "cli",
)


def _imported(tree: ast.Module) -> set[str]:
    """The package modules a module's source imports, by name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # "from . import reduce" and "from irrkatz import reduce" name the
            # module in the alias, "from .formal import X" in the node
            module = node.module or ""
            names = [alias.name for alias in node.names] if module in ("", "irrkatz") else [module]
        else:
            continue
        out.update(name.removeprefix("irrkatz.").split(".")[0] for name in names)
    return out & set(LAYERS)


def test_every_module_is_in_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)


def test_modules_import_only_lower_layers():
    upward = {}
    for level, name in enumerate(LAYERS):
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        above = sorted(m for m in _imported(tree) if LAYERS.index(m) >= level)
        if above:
            upward[name] = above
    assert not upward, f"imports of the same or a higher layer: {upward}"
