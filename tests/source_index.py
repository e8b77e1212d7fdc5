"""One index of the package source for the structural tests.

`names_read` gives every name a file reads (a bare name, an attribute or
an imported name): the export and dead-code checks count a definition as
used when some file reads its name.  `SourceIndex` resolves the same
trees into references, from the text alone, so a test can hand it
mutated source, and `reach` gives the definitions a function can reach.

A definition is a module-level function or class or a method, named
`module.name` or `module.Class.name`.  Module attributes, class
attributes and the attributes `__init__` sets on self are not
definitions: a reference to one is followed into the expression it
holds.  Resolved are:

* imports between the package's modules, at module level and inside a
  function;
* `self.x` (and `cls.x`) against the class the method was reached
  through, then its bases, so an inherited method calls the override;
  `super().x` against the bases after the defining class;
* attributes of a module, of a class and of `Cls()`, and of an
  attribute whose value is one of these (`self._table.row` after
  `self._table = ProfileTable()`);
* a name handed over as a value (`partial(_genalt, d)`), which is a
  reference like a call.

An attribute of anything else (a parameter, a local) may be any class
member of that name, so it reaches every one.  Annotations are not read.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "rascal"


@cache
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def names_read(paths) -> set[str]:
    """Every bare name, attribute and imported name read in the files."""
    names = set()
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


@cache
def library_index() -> SourceIndex:
    return SourceIndex({path.stem: parse(path) for path in sorted(LIBRARY.glob("*.py"))})


class Scope(NamedTuple):
    """Where an expression is read: its module, the imports of the
    function around it, the class it was reached through, the class that
    defines it and the name of the method's first parameter."""

    module: str
    local: dict
    receiver: str | None = None
    owner: str | None = None
    self_name: str | None = None


class Member(NamedTuple):
    """A class's own methods, class attributes and `__init__` attributes."""

    module: str
    bases: list
    methods: dict
    attributes: dict
    instance: dict


def _walk(node):
    """ast.walk without annotations, which are never evaluated here."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                stack.extend(v for v in (value if isinstance(value, list) else [value]) if isinstance(v, ast.AST))


def _imports(nodes) -> dict:
    """The package-relative imports anywhere in `nodes`, as bindings."""
    bound = {}
    for imp in (imp for node in nodes for imp in ast.walk(node)):
        if isinstance(imp, ast.ImportFrom) and imp.level:
            for alias in imp.names:
                name = alias.asname or alias.name
                bound[name] = ("module", alias.name) if imp.module is None else ("import", imp.module, alias.name)
    return bound


class SourceIndex:
    """Definitions and resolved references of the modules in `trees`
    (module name -> parsed source).  A binding is ("def", qualname,
    receiver), ("module", name), ("import", module, name) or ("value",
    expression, scope)."""

    def __init__(self, trees: dict[str, ast.Module]) -> None:
        self.defs: dict[str, ast.AST] = {}
        self.classes: dict[str, Member] = {}
        self.scopes: dict[str, dict] = {}
        for module, tree in trees.items():
            scope = self.scopes[module] = _imports(s for s in tree.body if isinstance(s, ast.ImportFrom))
            for node in tree.body:
                if isinstance(node, ast.FunctionDef | ast.ClassDef):
                    qual = f"{module}.{node.name}"
                    self.defs[qual] = node
                    scope[node.name] = ("def", qual, None)
                    if isinstance(node, ast.ClassDef):
                        self._index_class(module, qual, node)
                elif isinstance(node, ast.Assign | ast.AnnAssign) and node.value is not None:
                    for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                        if isinstance(target, ast.Name):
                            scope[target.id] = ("value", node.value, Scope(module, {}))

    def _index_class(self, module: str, qual: str, node: ast.ClassDef) -> None:
        methods, attributes, instance = {}, {}, {}
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                methods[item.name] = self.defs[f"{qual}.{item.name}"] = item
            elif isinstance(item, ast.Assign):
                attributes.update((t.id, item.value) for t in item.targets if isinstance(t, ast.Name))
        init = methods.get("__init__")
        if init is not None and init.args.args:
            self_name, local = init.args.args[0].arg, _imports([init])
            for item in ast.walk(init):
                for target in item.targets if isinstance(item, ast.Assign) else ():
                    if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == self_name:
                        instance[target.attr] = (item.value, local, self_name)
        self.classes[qual] = Member(module, node.bases, methods, attributes, instance)

    # -- resolution ------------------------------------------------------------

    def _follow(self, binding):
        """A binding with its import chain followed to what it names."""
        while binding is not None and binding[0] == "import":
            _, module, name = binding
            binding = self.scopes[module].get(name) if module in self.scopes else None
        return binding

    def _name(self, name: str, scope: Scope):
        return self._follow(scope.local.get(name) or self.scopes[scope.module].get(name))

    def _mro(self, qual: str) -> list[str]:
        order = [qual]
        info = self.classes[qual]
        for base in info.bases:
            kind = self._kind(self._name(base.id, Scope(info.module, {})) if isinstance(base, ast.Name) else None)
            if kind and kind[0] == "class":
                order += [c for c in self._mro(kind[1]) if c not in order]
        return order

    def _member(self, receiver: str, attr: str, classes=None):
        """`attr` looked up on an instance of `receiver`: the attributes
        `__init__` sets first, then the class bodies, in MRO order."""
        classes = self._mro(receiver) if classes is None else classes
        for qual in classes:
            if attr in self.classes[qual].instance:
                value, local, self_name = self.classes[qual].instance[attr]
                return ("value", value, Scope(self.classes[qual].module, local, receiver, qual, self_name))
        for qual in classes:
            info = self.classes[qual]
            if attr in info.methods:
                return ("def", f"{qual}.{attr}", receiver)
            if attr in info.attributes:
                return ("value", info.attributes[attr], Scope(info.module, {}, receiver, qual))
        return None

    def _kind(self, binding):
        """What a binding's value is, as far as attributes go: ("class",
        qualname) for a class or an instance of it, ("module", name), or None."""
        if binding is None:
            return None
        if binding[0] == "module":
            return binding
        if binding[0] == "def":
            return ("class", binding[1]) if binding[1] in self.classes else None
        if binding[0] == "value":
            return self._type(binding[1], binding[2])
        return None

    def _type(self, expr, scope: Scope):
        if isinstance(expr, ast.Name):
            if expr.id == scope.self_name:
                return ("class", scope.receiver)
            return self._kind(self._name(expr.id, scope))
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id == "super" and scope.owner:
                return ("super", scope.owner, scope.receiver)
            kind = self._type(expr.func, scope)
            return kind if kind and kind[0] == "class" else None
        if isinstance(expr, ast.Attribute):
            return self._kind(self._attribute(self._type(expr.value, scope), expr.attr))
        return None

    def _attribute(self, kind, attr: str):
        if kind is None:
            return None
        if kind[0] == "module":
            return self._follow(self.scopes[kind[1]].get(attr)) if kind[1] in self.scopes else None
        if kind[0] == "class":
            return self._member(kind[1], attr)
        _, owner, receiver = kind  # super(): the classes after the one that defines the method
        mro = self._mro(receiver)
        return self._member(receiver, attr, mro[mro.index(owner) + 1 :])

    def _references(self, node, scope: Scope):
        """Every binding that `node` reads."""
        for sub in _walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id != scope.self_name:
                yield self._name(sub.id, scope)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                kind = self._type(sub.value, scope)
                if kind is not None:
                    yield self._attribute(kind, sub.attr)
                else:  # an attribute of a value of unknown type: any member of that name
                    yield from (self._member(qual, sub.attr) for qual in self.classes)

    # -- reach ------------------------------------------------------------------

    def root(self, name: str):
        """The binding a qualified name denotes: a definition, or an
        attribute of a class (inherited ones too); LookupError if none."""
        if name in self.defs:
            owner = name.rsplit(".", 1)[0]
            return ("def", name, owner if owner in self.classes else None)
        owner, _, attr = name.rpartition(".")
        binding = self._member(owner, attr) if owner in self.classes else None
        if binding is None:
            raise LookupError(f"{name} is not defined in the source")
        return binding

    def reach(self, name: str) -> set[str]:
        """The definitions reachable from `name`, itself included when it is one."""
        reached, seen = set(), set()
        stack = [self.root(name)]
        while stack:
            binding = stack.pop()
            if binding is None or binding[0] not in ("def", "value"):
                continue
            if binding[0] == "value":
                key = ("value", id(binding[1]), binding[2].receiver)
            else:
                key = binding
            if key in seen:
                continue
            seen.add(key)
            if binding[0] == "value":
                stack.extend(self._references(binding[1], binding[2]))
                continue
            _, qual, receiver = binding
            reached.add(qual)
            node = self.defs[qual]
            if qual in self.classes:  # a class is reached to be called: its constructors run
                stack += [self._member(qual, "__init__"), self._member(qual, "__new__")]
                continue
            module, _, rest = qual.partition(".")
            owner = qual.rsplit(".", 1)[0] if "." in rest else None
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            self_name = node.args.args[0].arg if owner and node.args.args and not static else None
            scope = Scope(module, _imports([node]), receiver or owner, owner, self_name)
            stack.extend(self._references(node, scope))
        return reached
