"""The library is what the CLI, the demos and the benchmark use.

Every name ``semiwalk`` exports, and every public top-level function,
class or assigned name and every public method in ``src/semiwalk``, must
be read in ``src/`` outside its own definition, or in ``demos/`` or
``perfbench/``.  The benchmark wraps functions by name, so a string there
counts as a read.  What only the tests need lives in ``tests/reference.py``.

The same holds one level down, for parameters with a default: some call
there (in ``src/`` outside the function's own definition) passes the
parameter an expression that is not a literal, or the calls pass it at
least two different literal values.  An omitted argument counts as its
default, and a call with ``*args`` or ``**kwargs`` counts as passing
anything.  Calls are matched to functions by name (a class's name for its
``__init__``), so a call to another function of the same name counts too.
A parameter that no caller sets is a constant, and tests monkeypatch it.

Every call in ``demos/`` and ``perfbench/`` to a function or class imported
from ``semiwalk`` passes arguments its signature accepts, so a parameter
removed from the library cannot leave a caller there behind unnoticed.
"""

import ast
import importlib
import inspect
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


def _trees(folder: str) -> dict:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / folder).glob("*.py"))}


def _reads(tree, strings=False) -> Counter:
    """How often each name is read in a tree: loaded identifiers and
    attributes, and with ``strings`` also imported names and string
    constants."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif strings and isinstance(node, ast.alias):
            reads[node.name.rpartition(".")[2]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads[node.value] += 1
    return reads


def _public_defs(trees):
    """(name, node) per public top-level function, class and assigned
    name, and per public method of any class."""
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                yield node.name, node
                yield from ((m.name, m) for m in node.body
                            if isinstance(m, ast.FunctionDef))
            elif isinstance(node, ast.FunctionDef):
                yield node.name, node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def test_every_public_name_is_read_outside_the_tests():
    trees = _trees("src/semiwalk")
    init = trees.pop("__init__.py")
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    own = Counter()  # reads of each name inside its own definitions
    for name, node in _public_defs(trees):
        if not name.startswith("_"):
            own[name] += _reads(node)[name]
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    for folder in ("demos", "perfbench"):
        for tree in _trees(folder).values():
            reads += _reads(tree, strings=True)
    unread = sorted(name for name in exported | set(own) if reads[name] <= own[name])
    assert not unread, f"read by nothing outside the tests: {unread}"


class Param(NamedTuple):
    """A parameter with a default, of a top-level function or a method."""

    where: str  # module.function or module.Class.method
    fn: ast.FunctionDef
    called_as: str  # the function's name, or the class's for __init__
    skip: int  # leading parameters a call does not pass: self
    public: bool
    arg: ast.arg
    default: ast.expr


def defaulted_parameters(trees):
    """Every ``Param`` of the modules in ``trees``."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                fns = [(node.name, node, node.name, 0, not node.name.startswith("_"))]
            elif isinstance(node, ast.ClassDef):
                fns = []
                for m in node.body:
                    if isinstance(m, ast.FunctionDef):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in m.decorator_list)
                        init = m.name == "__init__"
                        public = not node.name.startswith("_") and (
                            init or not m.name.startswith("_"))
                        fns.append((f"{node.name}.{m.name}", m,
                                    node.name if init else m.name, 0 if static else 1, public))
            else:
                continue
            for qualname, fn, called_as, skip, public in fns:
                a = fn.args
                positional = a.posonlyargs + a.args
                pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                pairs += [(arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                for arg, default in pairs:
                    yield Param(f"{module[:-3]}.{qualname}", fn, called_as, skip,
                                public, arg, default)


def _literal(node) -> str | None:
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        return None


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def test_every_defaulted_parameter_is_set_by_a_caller():
    src = _trees("src/semiwalk")
    calls = defaultdict(list)
    for trees in (src, _trees("demos"), _trees("perfbench")):
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    calls[_callee(node)].append(node)
    constant = []
    for p in defaulted_parameters(src):
        own = {id(node) for node in ast.walk(p.fn)}
        positional = p.fn.args.posonlyargs + p.fn.args.args
        index = positional.index(p.arg) - p.skip if p.arg in positional else None
        values = set()
        for call in calls[p.called_as]:
            if id(call) in own:
                continue
            if (any(isinstance(x, ast.Starred) for x in call.args)
                    or any(k.arg is None for k in call.keywords)):
                break
            given = next((k.value for k in call.keywords if k.arg == p.arg.arg), None)
            if given is None and index is not None and index < len(call.args):
                given = call.args[index]
            if given is None:
                values.add(_literal(p.default) or ast.dump(p.default))
            elif _literal(given) is None:
                break
            else:
                values.add(_literal(given))
        else:
            if len(values) < 2:
                constant.append(f"{p.where}({p.arg.arg})")
    assert not constant, f"parameters no caller sets: {constant}"


def _resolve(node, bound: dict):
    """The object a call's callee names, through names imported from
    ``semiwalk`` and attributes of imported modules; None otherwise."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, bound)
        if inspect.ismodule(owner):
            return getattr(owner, node.attr, None)
    return None


def _semiwalk_bindings(tree) -> dict:
    """The names a file's imports bind to objects of ``semiwalk``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "semiwalk":
                    importlib.import_module(a.name)  # sets the package's attribute
                    bound["semiwalk"] = importlib.import_module("semiwalk")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "semiwalk":
            module = importlib.import_module(node.module)
            bound.update((a.asname or a.name, getattr(module, a.name)) for a in node.names)
    return bound


def signature_mismatches(folders=("demos", "perfbench")) -> list[str]:
    """``folder/file:line name`` per call, in those folders, to a function
    or class of ``semiwalk`` whose arguments its signature does not accept.
    A call with ``*args`` or ``**kwargs`` is taken as accepted."""
    found = []
    for folder in folders:
        for file, tree in _trees(folder).items():
            bound = _semiwalk_bindings(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                fn = _resolve(node.func, bound)
                if (not callable(fn) or any(isinstance(x, ast.Starred) for x in node.args)
                        or any(k.arg is None for k in node.keywords)):
                    continue
                try:
                    inspect.signature(fn).bind(*node.args,
                                               **{k.arg: k.value for k in node.keywords})
                except TypeError:
                    found.append(f"{folder}/{file}:{node.lineno} {ast.unparse(node.func)}")
    return found


def test_calls_from_demos_and_benchmark_match_the_signatures():
    # perfbench/validate.py still passes build_chain the state space that
    # the library no longer takes; the next benchmark change mends it
    assert signature_mismatches() == ["perfbench/validate.py:58 build_chain"]
