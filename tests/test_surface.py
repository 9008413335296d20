import ast
import glob
import inspect
import os

import orthoset_lab

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _references(path):
    """The names a file reads: loaded names, attribute names and imported
    names. A def, a class or an assignment target is not a reference."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_exported_name_is_reached_by_the_library_or_the_benchmark():
    """A name that only __init__ exports and only tests call is surface no
    suite, construction or benchmark runs; delete it or use it.  The guard
    covers every export and every public module-level function and class,
    so a name whose last caller went fails here with or without an
    export."""
    modules = [p for p in glob.glob(os.path.join(ROOT, "src", "orthoset_lab",
                                                 "*.py"))
               if os.path.basename(p) != "__init__.py"]
    used = set()
    for path in modules + glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        used.update(_references(path))
    public = [name for name in orthoset_lab.__all__
              if not inspect.ismodule(getattr(orthoset_lab, name))]
    assert public
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        public += [node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")]
    assert sorted(set(public) - used) == []


def test_no_module_imports_a_name_it_never_reads():
    """Every name a library module imports is read in that module: an
    import left behind by a deleted path fails here.  __init__ imports to
    export, so it is exempt."""
    unread = []
    for path in glob.glob(os.path.join(ROOT, "src", "orthoset_lab", "*.py")):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in loaded:
                        unread.append(f"{os.path.basename(path)}: {name}")
    assert unread == []
