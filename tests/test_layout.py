"""src/quadint holds only code that a subcommand or a public name reaches.

The walk parses src/quadint/*.py.  Its roots are the names that
module-level code references (the __all__ strings and the __main__ block
among them) and every dunder method.  From the roots it follows the names
and attribute names that the bodies of the definitions it reaches
reference, until nothing new is found.  A definition is matched by its bare
name in any module, so the walk can only over-reach; a definition it never
reaches runs in no subcommand.  A group of helpers that only call each other
stays unreached, where a count of references would see each one used.
Code that only the tests use belongs in tests/support.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quadint"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node, nested: bool) -> set[str]:
    """The names and attribute names that node references, and the strings
    of an __all__ assignment; inside the definitions nested in node only
    when `nested`."""
    names = set()
    stack = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        if isinstance(sub, DEFS) and not nested:
            continue
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif (isinstance(sub, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets)):
            names.update(c.value for c in ast.walk(sub.value)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
        stack.extend(ast.iter_child_nodes(sub))
    return names


def _definitions(nodes, prefix: str):
    """(qualified name, node) of every function and class defined at module
    level or in a class body; a function's nested definitions are part of
    its body."""
    for node in nodes:
        if isinstance(node, DEFS):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{prefix}{node.name}.")
        else:
            yield from _definitions(ast.iter_child_nodes(node), prefix)


def unreached(src: Path) -> list[str]:
    """The definitions in the modules of `src` that the walk never reaches,
    as module.qualname."""
    roots: set[str] = set()
    aliases: dict[str, str] = {}  # `import x as y` and `from m import x as y`
    defs = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        roots |= _references(tree, nested=False)
        aliases.update((a.asname, a.name) for a in ast.walk(tree)
                       if isinstance(a, ast.alias) and a.asname)
        for qualname, node in _definitions(tree.body, f"{path.stem}."):
            # a class's methods are definitions of their own
            refs = _references(node, nested=not isinstance(node, ast.ClassDef))
            defs.append((qualname, node.name, refs))

    seen = roots | {aliases[n] for n in roots if n in aliases}
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for qualname, name, refs in defs:
            dunder = name.startswith("__") and name.endswith("__")
            if qualname not in reached and (dunder or name in seen):
                reached.add(qualname)
                seen |= refs | {aliases[n] for n in refs if n in aliases}
                grew = True
    return sorted(q for q, _, _ in defs if q not in reached)


def test_every_definition_in_src_is_reached():
    missing = unreached(SRC)
    assert not missing, (
        "defined in src/quadint but reached from no subcommand or public name "
        "(helpers only tests use go to tests/support.py): " + ", ".join(missing))


def test_helpers_that_only_call_each_other_are_unreached(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .mod import run as go\n__all__ = ['go', 'Box']\n")
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def __len__(self):\n        return self.size\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    def spare(self):\n        return 1\n"
        "def run():\n    return _used()\n"
        "def _used():\n    return 0\n"
        "def _render(e):\n    return _wrap(e)\n"
        "def _wrap(e):\n    return _render(e)\n"
        "if __name__ == '__main__':\n    run()\n")
    assert unreached(tmp_path) == ["mod.Box.spare", "mod._render", "mod._wrap"]
