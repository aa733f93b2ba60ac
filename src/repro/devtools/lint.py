"""Static hygiene checks for the ``repro`` source tree.

Eight checks, all AST-based (the checked code is never imported):

1. **Import cycles.**  Builds the module-level import graph of
   ``repro`` — every ``import``/``from ... import`` executed at module
   import time, i.e. at the top level or inside module-level ``if``/
   ``try``/class bodies — and fails on any cycle.  ``if TYPE_CHECKING:``
   blocks are not a loophole: an internal (``repro.*``) import hidden
   behind ``TYPE_CHECKING`` is *also* an error.  The engine refactor
   removed the last genuine cycle by moving shared interfaces into
   :mod:`repro.search.protocols`; new coupling must be broken the same
   way, not hidden from the runtime.

2. **Dead code.**  Top-level functions and classes anywhere in
   ``repro`` that no file under ``src/``, ``benchmarks/``, ``examples/``
   or ``perfbench/`` names in code: an import of the name, an
   ``__all__`` entry and the definition's own body do not count, and
   tests do not count at all (a package ``__init__`` that uses the
   name, as ``KERNELS`` uses ``make_mm``, does).  Plus private
   (``_``-prefixed) top-level definitions never referenced inside their
   own module.  Plus public methods, properties, classmethods and
   staticmethods of every class whose name those files never mention
   outside the member's own body, as a name, an attribute or an
   identifier string (``getattr(obj, "name")`` is a use).  Members match
   by name alone, with no type inference, so an override is used when
   its base's name is, and a dead member that shares its name with a
   live one is missed.  The name-level twin of check 7.

3. **One persistence primitive.**  ``os.replace``, ``os.rename`` and
   ``os.fsync`` are called only in :mod:`repro.exec.journal` (the
   atomic write and the journal append) and in
   :mod:`repro.chaos.faultfs` (which wraps them to inject faults);
   every other durable write goes through the journal layer.

4. **One place handles search outcomes.**  ``except`` clauses naming
   :class:`~repro.errors.BudgetExhaustedError`,
   :class:`~repro.errors.EvaluationFailure` or one of its subclasses
   (as declared in ``repro/errors.py``) appear only in
   :mod:`repro.search.engine` (the budget-wall and failure rules every
   search shares) and :mod:`repro.reliability.resilient` (retry and
   degradation below the search).  Any other handler would give one
   search its own accounting.

5. **One way to set a tuner hyperparameter.**  A function or
   constructor that takes ``spec`` (a :class:`~repro.spec.TunerSpec`)
   takes no parameter named after a spec knob (``pool_size``,
   ``delta_percent``, ``batch_size``, ``n_initial``, ``acquisition``,
   ``kappa``, ``refit_every``, ``guard``): a second path would have to
   decide which of the two wins.  The allow-list names the exceptions
   and why.

6. **No environment side-doors.**  ``os.environ``/``os.getenv`` reads
   appear only for the (module, variable) pairs of an allow-list, each
   with its reason.  A setting a caller can pass is an argument; one
   read from the environment deep inside a call is a second way to set
   it that no signature shows.

7. **No module only tests reach.**  Every non-package module of
   ``repro`` is imported from ``src/``, ``benchmarks/``, ``examples/``
   or ``perfbench/`` — a lazy import inside a function counts, a
   package ``__init__`` import whose name appears only in ``__all__``
   does not — or is run by a Makefile target as ``python -m``.  Code
   that only its own tests exercise is deleted; a slow reference twin
   lives under ``tests/``.  Entry points come from the Makefile, so
   there is no allow-list.

8. **Layering.**  No module of :mod:`repro.search` imports
   :mod:`repro.tuner`, :mod:`repro.transfer` or
   :mod:`repro.experiments`, at module level or lazily inside a
   function: those layers are built on the searches, so the searches
   reach them only through structural protocols
   (:mod:`repro.search.protocols`) and duck-typed arguments.  A lazy
   import hides no cycle from check 1, but it still couples the
   package to what sits above it.

Run as ``python -m repro.devtools.lint`` (or ``make lint``).  Exit
status 0 means clean; 1 means findings (one per line on stdout).
"""

from __future__ import annotations

import ast
import os
import re
import sys

__all__ = [
    "collect_modules",
    "module_imports",
    "find_cycles",
    "check_imports",
    "check_dead_code",
    "check_persistence",
    "check_outcome_handlers",
    "check_spec_knobs",
    "check_env_reads",
    "check_unreached_modules",
    "check_layering",
    "run_lint",
    "main",
]

PACKAGE = "repro"


# ----------------------------------------------------------------------
# Module discovery
# ----------------------------------------------------------------------
def collect_modules(src_root: str) -> dict[str, str]:
    """Map dotted module names to file paths under ``src_root/repro``."""
    modules: dict[str, str] = {}
    pkg_root = os.path.join(src_root, PACKAGE)
    for dirpath, dirnames, filenames in os.walk(pkg_root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, src_root)
            parts = rel[:-3].split(os.sep)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            modules[".".join(parts)] = path
    return modules


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _is_package(path: str) -> bool:
    return os.path.basename(path) == "__init__.py"


def _resolve_from(name: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The module a ``from ... import`` in module ``name`` reads from."""
    if node.level == 0:
        return node.module or ""
    # Relative import: climb ``level`` packages from this module.
    parts = name.split(".")
    if not is_package:
        parts = parts[:-1]
    parts = parts[: len(parts) - (node.level - 1)]
    return ".".join(parts + ([node.module] if node.module else []))


def module_imports(name: str, path: str) -> tuple[list, list]:
    """The module's import-time and TYPE_CHECKING-only imports.

    Returns ``(runtime, type_only)`` where each entry is a
    ``(target_module, lineno)`` pair.  Imports inside function bodies
    are lazy — they run when the function is called, not when the
    module is imported — so they cannot create an import cycle and are
    ignored.  Class bodies *do* execute at import time and are walked.
    """
    with open(path, "rb") as fh:
        tree = ast.parse(fh.read(), filename=path)
    is_package = _is_package(path)
    runtime: list[tuple[str, int]] = []
    type_only: list[tuple[str, int]] = []

    def walk(body, sink) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                sink.extend((alias.name, node.lineno) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                # Emit ``base.name`` per alias: when the name is itself a
                # submodule (``from repro.ml import _native``) the true
                # dependency is the submodule, not the package __init__ —
                # longest-prefix resolution collapses plain attribute
                # imports back onto the module that defines them.
                base = _resolve_from(name, is_package, node)
                sink.extend(
                    (f"{base}.{alias.name}" if base else alias.name, node.lineno)
                    for alias in node.names
                )
            elif isinstance(node, ast.If):
                gated = type_only if _is_type_checking_test(node.test) else sink
                walk(node.body, gated)
                walk(node.orelse, sink)
            elif isinstance(node, ast.Try):
                walk(node.body, sink)
                for handler in node.handlers:
                    walk(handler.body, sink)
                walk(node.orelse, sink)
                walk(node.finalbody, sink)
            elif isinstance(node, (ast.With, ast.ClassDef)):
                walk(node.body, sink)

    walk(tree.body, runtime)
    return runtime, type_only


def _edge_target(imported: str, modules: dict[str, str]) -> str | None:
    """The known module an import lands on (longest matching prefix)."""
    parts = imported.split(".")
    while parts:
        candidate = ".".join(parts)
        if candidate in modules:
            return candidate
        parts.pop()
    return None


# ----------------------------------------------------------------------
# Check 1: import cycles (and TYPE_CHECKING-hidden internal imports)
# ----------------------------------------------------------------------
def find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Every elementary cycle's strongly connected component (Tarjan)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cycles: list[list[str]] = []

    def strongconnect(v: str) -> None:
        # Iterative Tarjan: recursion depth on a big package would be
        # the import chain length, which can exceed Python's limit.
        work = [(v, iter(sorted(graph.get(v, ()))))]
        index[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, edges = work[-1]
            advanced = False
            for w in edges:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                if len(component) > 1 or node in graph.get(node, ()):
                    cycles.append(sorted(component))

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return cycles


def check_imports(modules: dict[str, str]) -> list[str]:
    errors: list[str] = []
    graph: dict[str, set[str]] = {name: set() for name in modules}
    for name, path in sorted(modules.items()):
        runtime, type_only = module_imports(name, path)
        for imported, lineno in type_only:
            if (imported + ".").startswith(PACKAGE + "."):
                errors.append(
                    f"{path}:{lineno}: TYPE_CHECKING-gated import of internal "
                    f"module {imported!r} — share an interface via a protocol "
                    "module instead of hiding the cycle from the runtime"
                )
        for imported, _lineno in runtime:
            target = _edge_target(imported, modules)
            if target is not None and target != name:
                graph[name].add(target)
    for component in find_cycles(graph):
        errors.append(
            "runtime import cycle: " + " <-> ".join(component)
        )
    return errors


# ----------------------------------------------------------------------
# Check 2: dead code anywhere in the package
# ----------------------------------------------------------------------
def _name_uses(tree: ast.Module, strings: bool = False) -> dict[str, list[int]]:
    """Line numbers of every ``Name`` and attribute reference in
    ``tree``, by identifier, and with ``strings`` of every string
    constant that is an identifier.  Imports and definitions are not
    references, so they never appear; without ``strings`` neither do
    ``__all__`` entries."""
    uses: dict[str, list[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            ident = node.value
        else:
            continue
        uses.setdefault(ident, []).append(node.lineno)
    return uses


def _used_outside(uses: dict[str, dict[str, list[int]]], path: str,
                  node: ast.AST, ident: str) -> bool:
    """Whether some file references ``ident`` outside ``node``, the
    definition of that name in ``path``."""
    own_body = range(node.lineno, node.end_lineno + 1)
    return any(
        other != path or line not in own_body
        for other, found in uses.items()
        for line in found.get(ident, ())
    )


#: The top-level directories whose code runs the package for real:
#: the package itself, the experiments, the examples and the benchmark.
_USE_DIRS = ("src", "benchmarks", "examples", "perfbench")


def _read_corpus(repo_root: str, dirs: tuple[str, ...]) -> dict[str, str]:
    """Map the path of every Python file under ``repo_root``'s ``dirs``
    to its source (caches and hidden directories skipped)."""
    corpus: dict[str, str] = {}
    for d in dirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(repo_root, d)):
            dirnames[:] = [n for n in dirnames
                           if n != "__pycache__" and not n.startswith(".")]
            for filename in filenames:
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    with open(path, encoding="utf-8") as fh:
                        corpus[path] = fh.read()
    return corpus


def check_dead_code(modules: dict[str, str], repo_root: str) -> list[str]:
    """Top-level defs and class members anywhere in the package that
    nothing uses.

    A public name survives only if a file under ``src/``,
    ``benchmarks/``, ``examples/`` or ``perfbench/`` references it in
    code outside its own definition (a public member also if such a
    file holds it as an identifier string); private top-level names
    survive if their own module mentions them anywhere beyond the
    definition line.
    """
    errors: list[str] = []
    where = ", ".join(f"{d}/" for d in _USE_DIRS)
    corpus = _read_corpus(repo_root, _USE_DIRS)
    trees = {path: ast.parse(text, filename=path)
             for path, text in corpus.items()}
    uses = {path: _name_uses(tree) for path, tree in trees.items()}
    member_uses = {path: _name_uses(tree, strings=True)
                   for path, tree in trees.items()}
    for path in sorted(modules.values()):
        source = corpus[path]
        for node in trees[path].body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            ident = node.name
            if ident.startswith("__"):
                continue
            if ident.startswith("_"):
                # Private: any use inside its own module keeps it alive
                # (the definition itself accounts for one match).
                word = re.compile(rf"\b{re.escape(ident)}\b")
                if len(word.findall(source)) <= 1:
                    errors.append(
                        f"{path}:{node.lineno}: private {ident!r} is never "
                        "used in its module"
                    )
                continue
            if not _used_outside(uses, path, node, ident):
                errors.append(
                    f"{path}:{node.lineno}: {ident!r} is used by no code under "
                    f"{where} — delete it, or move it to tests/ if only tests "
                    "use it"
                )
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")
                        and not _used_outside(member_uses, path, node,
                                              node.name)):
                    errors.append(
                        f"{path}:{node.lineno}: member "
                        f"'{cls.name}.{node.name}' is used by no code under "
                        f"{where} — delete it"
                    )
    return errors


# ----------------------------------------------------------------------
# Check 3: durable writes only through the journal layer
# ----------------------------------------------------------------------
#: The ``os`` calls that make or move durable bytes.
_DURABLE_CALLS = frozenset({"replace", "rename", "fsync"})

#: The modules allowed to make them.
_PERSISTENCE_MODULES = frozenset({f"{PACKAGE}.exec.journal",
                                  f"{PACKAGE}.chaos.faultfs"})


def check_persistence(modules: dict[str, str]) -> list[str]:
    """Calls to ``os.replace``/``os.rename``/``os.fsync`` outside the
    journal layer."""
    errors: list[str] = []
    for name, path in sorted(modules.items()):
        if name in _PERSISTENCE_MODULES:
            continue
        with open(path, "rb") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if (
                isinstance(node, ast.Call)
                and isinstance(func, ast.Attribute)
                and func.attr in _DURABLE_CALLS
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            ):
                errors.append(
                    f"{path}:{node.lineno}: os.{func.attr} outside the "
                    "journal layer — write durably through "
                    "repro.exec.journal (atomic_write or JsonlJournal)"
                )
    return errors


# ----------------------------------------------------------------------
# Check 4: search outcomes handled in one place
# ----------------------------------------------------------------------
#: The modules allowed to catch budget walls and evaluation failures.
_OUTCOME_MODULES = frozenset({f"{PACKAGE}.search.engine",
                              f"{PACKAGE}.reliability.resilient"})


def _outcome_exceptions(errors_path: str) -> set[str]:
    """``BudgetExhaustedError``, ``EvaluationFailure`` and every class
    ``errors.py`` derives from either."""
    with open(errors_path, "rb") as fh:
        tree = ast.parse(fh.read(), filename=errors_path)
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    names = {"BudgetExhaustedError", "EvaluationFailure"}
    grew = True
    while grew:
        grew = False
        for cls, parents in bases.items():
            if cls not in names and parents & names:
                names.add(cls)
                grew = True
    return names


def _handler_names(node: ast.expr | None) -> list[str]:
    """The class names an ``except`` clause catches (none when bare)."""
    if isinstance(node, ast.Tuple):
        return [n for el in node.elts for n in _handler_names(el)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def check_outcome_handlers(modules: dict[str, str]) -> list[str]:
    """``except`` clauses catching budget walls or evaluation failures
    outside the engine and the resilient evaluator."""
    outcomes = _outcome_exceptions(modules[f"{PACKAGE}.errors"])
    errors: list[str] = []
    for name, path in sorted(modules.items()):
        if name in _OUTCOME_MODULES:
            continue
        with open(path, "rb") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            for caught in _handler_names(node.type):
                if caught in outcomes:
                    errors.append(
                        f"{path}:{node.lineno}: except {caught} outside "
                        "the search engine and the resilient evaluator — "
                        "let the engine's one accounting handle it"
                    )
    return errors


# ----------------------------------------------------------------------
# Check 5: tuner hyperparameters set only through the spec
# ----------------------------------------------------------------------
#: Parameter names of :class:`~repro.spec.TunerSpec` knobs.
_SPEC_KNOBS = frozenset({
    "pool_size", "delta_percent", "batch_size", "n_initial",
    "acquisition", "kappa", "refit_every", "guard",
})

#: ``(module, qualified name)`` -> the knob-named parameters it may
#: take beside ``spec``.
_SPEC_KNOB_ALLOWED = {
    # The one translation, ``spec.with_value("pool.size", pool_size)``,
    # kept for the perfbench workloads that size the pool; no caller
    # in the package uses it.
    (f"{PACKAGE}.experiments.harness", "build_session"): {"pool_size"},
    # Online RSb's own refit cadence; the spec's ``smbo.refit_every``
    # is SMBO's and does not reach this search.
    (f"{PACKAGE}.transfer.online", "online_biased_search"): {"refit_every"},
}


def _functions(body: list, prefix: str = ""):
    """``(qualified name, node)`` for every function in ``body``,
    methods and nested functions included."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node
            yield from _functions(node.body, f"{prefix}{node.name}.")


def check_spec_knobs(modules: dict[str, str]) -> list[str]:
    """Callables taking ``spec`` and also a spec knob by name."""
    errors: list[str] = []
    for name, path in sorted(modules.items()):
        with open(path, "rb") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for qualname, node in _functions(tree.body):
            args = node.args
            params = {
                a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
            }
            if "spec" not in params:
                continue
            allowed = _SPEC_KNOB_ALLOWED.get((name, qualname), set())
            for knob in sorted(params & _SPEC_KNOBS - allowed):
                errors.append(
                    f"{path}:{node.lineno}: {qualname} takes spec and "
                    f"{knob!r} — set the knob through the spec only"
                )
    return errors


# ----------------------------------------------------------------------
# Check 6: no environment side-doors
# ----------------------------------------------------------------------
#: ``(module, variable)`` -> why that module may read that variable.
_ENV_ALLOWED = {
    (f"{PACKAGE}.ml._native", "CC"):
        "the C compiler the native kernels build with, by the usual convention",
    (f"{PACKAGE}.ml._native", "REPRO_NATIVE"):
        "turns the native build off on a host without a working compiler",
    (f"{PACKAGE}.exec.executor", "REPRO_WORKERS"):
        "sizes every default worker fleet to the host it runs on",
    (f"{PACKAGE}.exec.registry", "REPRO_RESUME"):
        "re-runs a journaled grid from scratch without editing its driver",
    (f"{PACKAGE}.exec.fingerprint", "REPRO_CODE_VERSION"):
        "pins cell fingerprints across a code change",
}


def _is_os_attr(node: ast.AST, attr: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _literal(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _env_reads(tree: ast.Module):
    """``(line, variable or None)`` for every environment read."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_os_attr(node.func, "getenv"):
            yield node.lineno, _literal(node.args[0] if node.args else None)
        elif _is_os_attr(node, "environ"):
            parent = parents.get(node)
            name = None
            if isinstance(parent, ast.Subscript):
                name = _literal(parent.slice)
            elif isinstance(parent, ast.Compare):
                name = _literal(parent.left)
            elif isinstance(parent, ast.Attribute) and parent.attr == "get":
                call = parents.get(parent)
                if isinstance(call, ast.Call) and call.args:
                    name = _literal(call.args[0])
            yield node.lineno, name


def check_env_reads(modules: dict[str, str]) -> list[str]:
    """Environment reads outside the allow-list."""
    errors: list[str] = []
    for name, path in sorted(modules.items()):
        with open(path, "rb") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for lineno, variable in _env_reads(tree):
            if (name, variable) not in _ENV_ALLOWED:
                what = (f"environment variable {variable!r}" if variable
                        else "the environment by a non-literal name")
                errors.append(f"{path}:{lineno}: reads {what} — take the "
                              "setting as an argument")
    return errors


# ----------------------------------------------------------------------
# Check 7: every module reached by something other than tests
# ----------------------------------------------------------------------
def _imports_anywhere(tree: ast.Module, name: str, is_package: bool):
    """``(module, imported name or None, bound name)`` for every import
    in ``tree``, function bodies included: a lazy import is still a use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.name, None,
                       alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from(name, is_package, node)
            for alias in node.names:
                yield base, alias.name, alias.asname or alias.name


def _makefile_entry_points(repo_root: str) -> set[str]:
    """Modules the Makefile runs as ``python -m repro.<mod>``."""
    path = os.path.join(repo_root, "Makefile")
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return set(re.findall(rf"-m\s+({PACKAGE}(?:\.\w+)*)", text))


def check_unreached_modules(modules: dict[str, str], repo_root: str) -> list[str]:
    """``repro`` modules that only tests import.

    A module is reached when a file under ``src/``, ``benchmarks/``,
    ``examples/`` or ``perfbench/`` imports it (at any depth, names
    re-exported by a package resolved to the module defining them) or
    when a Makefile target runs it with ``python -m``.  A package
    ``__init__``'s own import counts only when the ``__init__`` uses
    the bound name beyond listing it in ``__all__``.  Packages
    themselves are not checked: importing any submodule runs them.
    """
    packages = {n for n, path in modules.items() if _is_package(path)}
    by_path = {path: n for n, path in modules.items()}
    # package -> {name it re-exports: (module, name) it imports it from}
    reexports: dict[str, dict[str, tuple[str, str]]] = {}
    for pkg in packages:
        with open(modules[pkg], "rb") as fh:
            tree = ast.parse(fh.read(), filename=modules[pkg])
        reexports[pkg] = {
            alias.asname or alias.name:
                (_resolve_from(pkg, True, node), alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }

    def landing(base: str, imported: str | None) -> str | None:
        seen: set[tuple[str, str]] = set()
        while imported is not None and (base, imported) not in seen:
            seen.add((base, imported))
            if f"{base}.{imported}" in modules:
                return f"{base}.{imported}"
            if imported not in reexports.get(base, {}):
                break
            base, imported = reexports[base][imported]
        return _edge_target(base, modules)

    reached: set[str] = set()
    for entry in _makefile_entry_points(repo_root):
        reached.update({entry, f"{entry}.__main__"})
    for path, source in _read_corpus(repo_root, _USE_DIRS).items():
        own = by_path.get(path, "")
        is_init = own in packages
        tree = ast.parse(source, filename=path)
        used_here = ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
                     if is_init else set())
        for base, imported, bound in _imports_anywhere(tree, own, is_init):
            if is_init and bound not in used_here:
                continue
            target = landing(base, imported)
            if target is not None and target != own:
                reached.add(target)

    return [
        f"{path}:1: module {n!r} is imported by nothing outside tests "
        "and run by no Makefile target — delete it, or move it to tests/ "
        "if it is a test oracle"
        for n, path in sorted(modules.items())
        if n not in packages and n not in reached
    ]


# ----------------------------------------------------------------------
# Check 8: the search layer imports nothing built on top of it
# ----------------------------------------------------------------------
#: Package -> the packages none of its modules may import.
_LAYERS = {
    f"{PACKAGE}.search": (f"{PACKAGE}.tuner", f"{PACKAGE}.transfer",
                          f"{PACKAGE}.experiments"),
}


def check_layering(modules: dict[str, str]) -> list[str]:
    """Imports, at any depth, of a layer above the importing package."""
    errors: list[str] = []
    for name, path in sorted(modules.items()):
        banned = [upper for layer, uppers in _LAYERS.items()
                  if (name + ".").startswith(layer + ".") for upper in uppers]
        if not banned:
            continue
        with open(path, "rb") as fh:
            tree = ast.parse(fh.read(), filename=path)
        is_package = _is_package(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_from(name, is_package, node)
                targets = [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for target in targets:
                for upper in banned:
                    if (target + ".").startswith(upper + "."):
                        errors.append(
                            f"{path}:{node.lineno}: {name} imports {upper} "
                            "— the search layer must not depend on a layer "
                            "built on it; take a protocol instead"
                        )
    return errors


# ----------------------------------------------------------------------
def _default_roots() -> tuple[str, str]:
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    return src_root, os.path.dirname(src_root)


def run_lint(src_root: str | None = None, repo_root: str | None = None) -> list[str]:
    """All findings for the tree (empty list == clean)."""
    if src_root is None or repo_root is None:
        default_src, default_repo = _default_roots()
        src_root = src_root or default_src
        repo_root = repo_root or default_repo
    modules = collect_modules(src_root)
    return (check_imports(modules) + check_dead_code(modules, repo_root)
            + check_persistence(modules) + check_outcome_handlers(modules)
            + check_spec_knobs(modules) + check_env_reads(modules)
            + check_unreached_modules(modules, repo_root)
            + check_layering(modules))


def main(argv: list[str] | None = None) -> int:
    errors = run_lint()
    for error in errors:
        print(error)
    if errors:
        print(f"lint: {len(errors)} finding(s)")
        return 1
    print("lint: clean (import graph acyclic, no hidden internal imports, "
          f"no function, class or class member in {PACKAGE} that only "
          "tests use, durable writes only through the journal layer, "
          "search outcomes handled only by the engine, "
          "tuner knobs set only through the spec, no environment "
          "side-doors, no module that only tests import, no search "
          "module importing the layers built on it)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
