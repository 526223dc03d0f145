"""Static checks on the package source: no top-level import that its module
never reads, no private module-level function or class that its module never
references, no function parameter that its function never reads, no public
definition that only tests read, no dataclass field that nothing reads, no
returned value that every caller drops, no local, in the package, the
benchmark or the tests, that is assigned and never read, no array
conversion in the inner layers, no getter, and nothing in the package's
``__init__.py`` but its docstring. Only the standard library's ``ast`` is
used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cocor"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _read_names(tree: ast.AST) -> set[str]:
    """Every name the module loads, as a bare name or as an attribute base."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_package_init_is_only_its_docstring():
    # the modules are the API: a name has one import path, the module dict
    # where perfbench's tracer wraps it
    tree = _parse(SRC / "__init__.py")
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    found = [f"from {'.' * node.level}{node.module} import ..."
             if isinstance(node, ast.ImportFrom) else ast.unparse(node).splitlines()[0]
             for node in body]
    assert not found, f"__init__.py holds more than its docstring: {found}"


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"bilevel.py", "encoder.py", "harness.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    tree = _parse(path)
    unused = [n for n in _imported_names(tree) if n not in _read_names(tree)]
    assert not unused, f"{path.name} imports {unused} but never reads them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_definition(path):
    tree = _parse(path)
    private = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")]
    unused = [n for n in private if n not in _read_names(tree)]
    assert not unused, f"{path.name} defines {unused} but never references them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameter(path):
    # a parameter that a dispatch signature needs but its body ignores is _-prefixed
    unread = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            reads = set().union(*map(_read_names, node.body))
            unread += [f"{node.name}({p.arg})" for p in params
                       if p and not p.arg.startswith("_") and p.arg not in reads]
    assert not unread, f"{path.name}: parameters never read: {unread}"


PERFBENCH = SRC.parent.parent / "perfbench"
# every module whose reads count as use: the package's and the benchmark's, not tests
READERS = MODULES + sorted(p for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_"))
# the chain-rule reference that acceptance criterion 4 checks the collapsed scalar against
TEST_ONLY_ALLOWED = {("bilevel.py", "hypergradient_oracle")}


def _reads_outside(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names ``tree`` loads, bare or as an attribute, outside the ``skip`` subtree."""
    names, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names


def test_no_public_definition_only_tests_read():
    trees = {path: _parse(path) for path in READERS}
    unread = []
    for path in MODULES:
        elsewhere = set().union(*(_reads_outside(t) for p, t in trees.items() if p != path))
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and (path.name, node.name) not in TEST_ONLY_ALLOWED
                    and node.name not in elsewhere
                    and node.name not in _reads_outside(trees[path], skip=node)):
                unread.append(f"{path.name}: {node.name}")
    assert not unread, f"public definitions that no package or benchmark code reads: {unread}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
                isinstance(target, ast.Attribute) and target.attr == "dataclass"):
            return True
    return False


# harness writes every field of a record through dataclasses.asdict
UNREAD_FIELDS_ALLOWED = {("bilevel.py", "MetricsRecord")}


def test_every_dataclass_field_is_read():
    trees = {path: _parse(path) for path in READERS}
    attrs = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in MODULES:
        for node in trees[path].body:
            if (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                    and (path.name, node.name) not in UNREAD_FIELDS_ALLOWED):
                unread += [f"{node.name}.{field.target.id}" for field in node.body
                           if isinstance(field, ast.AnnAssign)
                           and isinstance(field.target, ast.Name)
                           and field.target.id not in attrs]
    assert not unread, f"dataclass fields that no package or benchmark code reads: {unread}"


def _own_scope(func: ast.FunctionDef):
    """The nodes of the function's own body; a nested function, lambda or
    class is yielded but not entered."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _returns_value(func: ast.FunctionDef) -> bool:
    """Whether the function's own body returns something other than a bare
    or literal None."""
    return any(isinstance(node, ast.Return) and node.value is not None and not (
        isinstance(node.value, ast.Constant) and node.value.value is None)
        for node in _own_scope(func))


def test_no_return_value_every_caller_drops():
    # a name passed on as a value counts as a use: a name search cannot follow
    # what the receiver does with the result
    trees = {path: _parse(path) for path in READERS}
    dropped, used = set(), set()
    for tree in trees.values():
        discarded = {id(node.value.func) for node in ast.walk(tree)
                     if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            (dropped if id(node) in discarded else used).add(name)
    unused = [f"{path.stem}.{node.name}" for path in MODULES for node in trees[path].body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and _returns_value(node) and node.name in dropped and node.name not in used]
    assert not unused, f"functions whose every caller drops the returned value: {unused}"


# every Python file of the package, the benchmark and the tests
CODE = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")) + sorted(
    Path(__file__).resolve().parent.glob("*.py"))


def test_no_local_assigned_and_never_read():
    # only a plain `name = ...` counts: tuple unpacking, loop targets, `with ... as`
    # and augmented assignment do not, and _-prefixed names are exempt; a read
    # in a nested function counts
    unread = []
    for path in CODE:
        for func in ast.walk(_parse(path)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reads = _read_names(func)
                unread += [f"{path.name}:{func.name} ({target.id})"
                           for node in _own_scope(func) if isinstance(node, ast.Assign)
                           for target in node.targets if isinstance(target, ast.Name)
                           and not target.id.startswith("_") and target.id not in reads]
    assert not unread, f"locals assigned and never read: {unread}"


# arrays take their form at the boundary (Dataset, the readers, ParamSet,
# apply_basic, pmnn's count matrices); the layers below it never convert again
INNER = ("bilevel.py", "encoder.py", "losses.py")
CONVERTERS = {"asarray", "asanyarray", "atleast_1d", "atleast_2d"}


def _converting_scopes(tree: ast.Module, module: str) -> set[str]:
    """Dotted names of the functions, classes or module whose own code calls
    one of ``CONVERTERS``."""
    found, todo = set(), [(tree, module)]
    while todo:
        node, scope = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr in CONVERTERS
                or isinstance(node.func, ast.Name) and node.func.id in CONVERTERS):
            found.add(scope)
        todo += [(child, scope) for child in ast.iter_child_nodes(node)]
    return found


def test_inner_layers_do_not_convert():
    found = sorted(set().union(*(_converting_scopes(_parse(SRC / name), name[:-3])
                                 for name in INNER)))
    assert not found, f"inner layers that convert their array inputs: {found}"


def _is_getter(func: ast.FunctionDef) -> bool:
    """Whether the body, after its docstring, is only ``return self.<name>``."""
    body = func.body[1:] if ast.get_docstring(func) is not None else func.body
    return (len(body) == 1 and isinstance(body[0], ast.Return)
            and isinstance(body[0].value, ast.Attribute)
            and isinstance(body[0].value.value, ast.Name) and body[0].value.value.id == "self")


def test_no_getter():
    # a value that a getter hands out is read where it lives
    found = [f"{path.stem}.{cls.name}.{func.name}" for path in MODULES
             for cls in _parse(path).body if isinstance(cls, ast.ClassDef)
             for func in cls.body if isinstance(func, ast.FunctionDef) and _is_getter(func)]
    assert not found, f"methods or properties that only return an attribute: {found}"
