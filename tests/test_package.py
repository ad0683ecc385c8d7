import argparse
import ast
import re
from pathlib import Path

import prism
from prism.cli import _build_parser

SRC = Path(prism.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"
README = SRC.parent.parent / "README.md"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; an import line marked
    ``# noqa: F401`` is kept on purpose, and ``__all__`` counts as a read."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_exports_resolve_and_imports_are_used():
    # stands in for a linter: exports are listed once and resolve, and no
    # module imports a name it never uses
    assert len(prism.__all__) == len(set(prism.__all__))
    missing = [name for name in prism.__all__ if not hasattr(prism, name)]
    assert missing == []
    unused = [hit for path in sorted(SRC.glob("*.py")) for hit in _unused_imports(path)]
    assert unused == []


def test_exports_cover_every_top_level_import():
    # what the README example and the benchmark scripts import from prism
    # itself stays exported; everything else is imported from its module
    texts = [README.read_text(encoding="utf-8")]
    texts += [path.read_text(encoding="utf-8") for path in BENCH.glob("*.py")]
    imported = {
        name
        for text in texts
        for group in re.findall(r"from prism import (?:\(([^)]*)\)|([\w ,]+))", text)
        for name in re.findall(r"\w+", "".join(group))
        if not (SRC / f"{name}.py").exists()  # a module, not a name
    }
    assert {"RunConfig", "get_communities", "build_hypergraph", "parse_report"} <= imported
    assert sorted(imported - set(prism.__all__)) == []


def _defined(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class or the
    plain names it assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_top_level_name_is_read():
    # a deletion leaves no name behind: every top-level function, class and
    # constant of the package is read by some line of it, exported in
    # __all__ or named by a benchmark script
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    read = {"__all__", *prism.__all__}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    for path in BENCH.glob("*.py"):
        read.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unread = [
        f"{name}:{node.lineno} {defined}"
        for name, tree in sorted(trees.items())
        for node in tree.body
        for defined in _defined(node)
        if defined not in read
    ]
    assert unread == []



def _cli_options() -> set[str]:
    """Every ``--`` option of every ``prism`` command, ``--help`` aside."""
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        option
        for command in commands.choices.values()
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def test_readme_names_every_cli_option():
    # the README lists the flags by hand
    readme = README.read_text(encoding="utf-8")
    options = _cli_options()
    assert "--epsilon" in options
    assert sorted(o for o in options if o not in readme) == []


def test_readme_cli_section_names_only_cli_options():
    # the reverse: a flag the CLI lost must leave the README's CLI section too
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert "--epsilon" in named
    assert sorted(named - _cli_options()) == []
