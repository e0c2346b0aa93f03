"""The public surface: every exported name is used, and the README examples run.

A name in a module's ``__all__`` earns its place by a reference from
``src/`` code outside its own definition, from the benchmark scripts under
``bench/``, or from README.md.  Names that only the acceptance criteria call
are listed in ``EXCEPTIONS`` with the reason.
"""

import ast
import io
import re
import tokenize
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "thermoflow"
README = ROOT / "README.md"

EXCEPTIONS = {
    "thermal_op_reduction_check": "acceptance criterion: random thermal operations reduce to partial thermalization",
    "estimate_contraction": "acceptance criterion: measured contraction of the partial and pinch channels",
    "unitary_approx_error": "acceptance criterion: frozen-Hamiltonian propagators converge at second order",
    "rank_deficient_scaling": "acceptance criterion: log(N)/N dissipation for rank-deficient starts",
}


def _module_exports(path: Path) -> tuple[list[str], list[tuple[str, int, int]]]:
    """The module's __all__ and the (name, first line, last line) of each top-level definition."""
    tree = ast.parse(path.read_text())
    exports, spans = [], []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exports = list(ast.literal_eval(node.value))
            spans.append(("__all__", node.lineno, node.end_lineno))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    spans.append((target.id, node.lineno, node.end_lineno))
    return exports, spans


def _code_names(path: Path) -> list[tuple[str, int]]:
    """(name, line) of each NAME token of a Python file: strings and comments do not count."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return [(tok.string, tok.start[0]) for tok in tokens if tok.type == tokenize.NAME]


def _readme_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def _readme_names() -> set[str]:
    """Identifiers in README's python blocks and inline code spans."""
    text = README.read_text()
    code = _readme_blocks() + re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", " ".join(code)))


def _unreferenced() -> dict[str, str]:
    """Each exported name with no reference outside its own definition, mapped to its module."""
    sources = {path: _code_names(path) for path in SRC.glob("*.py")}
    outside = _readme_names() | {name for path in (ROOT / "bench").glob("*.py") for name, _ in _code_names(path)}
    found = {}
    for path in sorted(p for p in sources if p.name != "__init__.py"):
        exports, spans = _module_exports(path)
        others = outside | {name for other, tokens in sources.items() if other != path for name, _ in tokens}
        for name in exports:
            own = [(lo, hi) for n, lo, hi in spans if n in (name, "__all__")]
            inside = any(n == name and not any(lo <= line <= hi for lo, hi in own) for n, line in sources[path])
            if name not in others and not inside:
                found[name] = path.stem
    return found


def test_every_exported_name_is_referenced_or_excepted():
    unreferenced = _unreferenced()
    unexplained = sorted(f"{module}.{name}" for name, module in unreferenced.items() if name not in EXCEPTIONS)
    assert not unexplained, f"exported but used by no src/ code, bench script or README example: {unexplained}"
    stale = sorted(set(EXCEPTIONS) - set(unreferenced))
    assert not stale, f"exceptions that are referenced now, or no longer exported: {stale}"


def test_readme_python_blocks_run():
    blocks = _readme_blocks()
    assert blocks
    namespace = {"__name__": "readme"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
