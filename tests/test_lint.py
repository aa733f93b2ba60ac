"""The devtools lint: the real tree is clean, and the checks actually
catch the defects they exist for (exercised on synthetic trees)."""

import os
import textwrap

from repro.devtools.lint import (
    check_dead_code,
    check_env_reads,
    check_imports,
    check_layering,
    check_outcome_handlers,
    check_persistence,
    check_spec_knobs,
    check_unreached_modules,
    collect_modules,
    find_cycles,
    run_lint,
)


def _write_tree(root, files):
    for rel, body in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(textwrap.dedent(body))
    return os.path.join(root, "src")


class TestRealTree:
    def test_source_tree_is_clean(self):
        assert run_lint() == []


class TestCycleDetection:
    def test_detects_runtime_cycle(self, tmp_path):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/a.py": "from repro.b import thing\n",
            "src/repro/b.py": "from repro.a import other\n",
        })
        errors = check_imports(collect_modules(src))
        assert len(errors) == 1
        assert "runtime import cycle" in errors[0]
        assert "repro.a" in errors[0] and "repro.b" in errors[0]

    def test_parent_submodule_import_is_not_a_cycle(self, tmp_path):
        # The benign package pattern: __init__ re-exports a submodule
        # while a sibling pulls a *submodule* (not an attribute) out of
        # the package — the dependency lands on the submodule.
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/ml/__init__.py": "from repro.ml.forest import Forest\n",
            "src/repro/ml/_native.py": "KERNEL = None\n",
            "src/repro/ml/forest.py": (
                "from repro.ml import _native\nclass Forest:\n    pass\n"
            ),
        })
        assert check_imports(collect_modules(src)) == []

    def test_attribute_import_cycle_through_init(self, tmp_path):
        # Importing an *attribute* (not a submodule) from the package
        # __init__ is a genuine dependency on the __init__ module.
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/ml/__init__.py": (
                "from repro.ml.forest import Forest\nHELPER = 1\n"
            ),
            "src/repro/ml/forest.py": (
                "from repro.ml import HELPER\nclass Forest:\n    pass\n"
            ),
        })
        errors = check_imports(collect_modules(src))
        assert any("runtime import cycle" in e for e in errors)

    def test_lazy_function_imports_are_ignored(self, tmp_path):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/a.py": (
                "from repro.b import thing\n"
            ),
            "src/repro/b.py": (
                "def late():\n    from repro.a import other\n    return other\n"
            ),
        })
        assert check_imports(collect_modules(src)) == []

    def test_relative_imports_resolve(self, tmp_path):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/a.py": "from .b import thing\n",
            "src/repro/pkg/b.py": "from .a import other\n",
        })
        errors = check_imports(collect_modules(src))
        assert any("runtime import cycle" in e for e in errors)

    def test_tarjan_finds_self_loop(self):
        assert find_cycles({"a": {"a"}}) == [["a"]]
        assert find_cycles({"a": {"b"}, "b": set()}) == []


class TestTypeCheckingGate:
    def test_internal_type_checking_import_is_flagged(self, tmp_path):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/a.py": """\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.b import Thing
            """,
            "src/repro/b.py": "class Thing:\n    pass\n",
        })
        errors = check_imports(collect_modules(src))
        assert len(errors) == 1
        assert "TYPE_CHECKING" in errors[0]
        assert "repro.b" in errors[0]

    def test_external_type_checking_import_is_allowed(self, tmp_path):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/a.py": """\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    import numpy as np
            """,
        })
        assert check_imports(collect_modules(src)) == []


class TestDeadCode:
    def _tree(self, tmp_path, search_module):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/search/__init__.py": "",
            "src/repro/search/mod.py": search_module,
            "src/repro/other.py": (
                "from repro.search.mod import used\n\nused()\n"
            ),
        })
        return collect_modules(src), str(tmp_path)

    def test_unreferenced_public_def_is_flagged(self, tmp_path):
        modules, root = self._tree(tmp_path, """\
            def used():
                pass

            def orphan():
                pass
        """)
        errors = check_dead_code(modules, root)
        assert len(errors) == 1
        assert "'orphan'" in errors[0]

    def test_exports_imports_tests_and_self_use_are_not_uses(self, tmp_path):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": (
                "from repro.pkg.mod import exported, imported, make, Table\n"
                "__all__ = ['exported', 'imported', 'make']\n"
                "TABLE = {'m': make}\n"
            ),
            "src/repro/pkg/mod.py": (
                "__all__ = ['exported', 'imported', 'tested', 'make',\n"
                "           'walk', 'Table', 'used']\n"
                "def exported():\n    pass\n"
                "def imported():\n    pass\n"
                "def tested():\n    pass\n"
                "def make():\n    pass\n"
                "def walk(node):\n    return [walk(c) for c in node]\n"
                "class Table:\n"
                "    def copy(self):\n        return Table()\n"
                "def used():\n    pass\n"
                "LOCAL = used()\n"
            ),
            "examples/demo.py": "from repro.pkg import imported\n",
            "tests/test_mod.py": (
                "from repro.pkg.mod import tested\n\ntested()\n"
            ),
        })
        errors = check_dead_code(collect_modules(src), str(tmp_path))
        flagged = sorted(e.split("'")[1] for e in errors)
        # An __all__ entry, a bare import, a test, a recursive call and
        # a method naming its own class keep nothing alive; a package
        # __init__ using the name in code and a use elsewhere in the
        # defining module do.  ``Table.copy`` is a member nothing calls.
        assert flagged == [
            "Table", "Table.copy", "exported", "imported", "tested", "walk",
        ]

    def test_unused_private_def_is_flagged(self, tmp_path):
        modules, root = self._tree(tmp_path, """\
            def used():
                return _helper()

            def _helper():
                pass

            def _stale():
                pass
        """)
        errors = check_dead_code(modules, root)
        assert len(errors) == 1
        assert "'_stale'" in errors[0]


    def _members(self, tmp_path, files):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/box.py": (
                "class Box:\n"
                "    def dead(self):\n        return self.dead()\n"
                + files.pop("box", "")
            ),
            "src/repro/other.py": "from repro.box import Box\n\nBox()\n",
            **files,
        })
        errors = check_dead_code(collect_modules(src), str(tmp_path))
        return sorted(e.split("'")[1] for e in errors)

    def test_member_only_tests_call_is_flagged(self, tmp_path):
        # ``dead`` calls itself, which is no use; ``tested`` is called
        # only from tests/.
        flagged = self._members(tmp_path, {
            "box": "    def tested(self):\n        pass\n",
            "tests/test_box.py": (
                "from repro.box import Box\n\nBox().tested()\n"
            ),
        })
        assert flagged == ["Box.dead", "Box.tested"]

    def test_attribute_getattr_string_and_override_are_uses(self, tmp_path):
        flagged = self._members(tmp_path, {
            "box": (
                "    def run(self):\n        pass\n"
                "    @property\n    def size(self):\n        return 1\n"
                "    def state(self):\n        return {}\n"
                "    @classmethod\n    def make(cls):\n        return cls()\n"
                "class Crate(Box):\n"
                "    def run(self):\n        pass\n"
            ),
            "examples/demo.py": (
                "from repro.box import Box, Crate\n\n"
                "b = Box.make()\nprint(b.size)\n"
                "getattr(b, 'state')()\n"
                "for c in (b, Crate()):\n    c.run()\n"
            ),
        })
        assert flagged == ["Box.dead"]

    def test_dunder_and_private_members_are_skipped(self, tmp_path):
        flagged = self._members(tmp_path, {
            "box": (
                "    def __len__(self):\n        return 0\n"
                "    def _helper(self):\n        pass\n"
                "    @staticmethod\n    def _build():\n        pass\n"
            ),
        })
        assert flagged == ["Box.dead"]


class TestPersistence:
    def test_durable_os_calls_outside_the_journal_layer_are_flagged(
        self, tmp_path
    ):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/exec/__init__.py": "",
            "src/repro/exec/journal.py": """\
                import os

                def atomic_write(path, tmp, fd):
                    os.fsync(fd)
                    os.replace(tmp, path)
            """,
            "src/repro/reliability/__init__.py": "",
            "src/repro/reliability/checkpoint.py": """\
                import os

                def rotate(path, fd):
                    os.fsync(fd)
                    os.replace(path, path + ".bak")
                    os.rename(path, path + ".old")
                    os.remove(path)
            """,
        })
        errors = check_persistence(collect_modules(src))
        assert len(errors) == 3
        assert all("reliability/checkpoint.py" in e for e in errors)
        assert [e.split(": ")[1].split()[0] for e in errors] == [
            "os.fsync", "os.replace", "os.rename"
        ]


class TestLayering:
    def test_search_importing_an_upper_layer_is_flagged(self, tmp_path):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/search/__init__.py": "",
            "src/repro/search/engine.py": """\
                from repro.tuner.runner import drive
                import repro.transfer.guard

                def run():
                    from repro.experiments import harness
                    from repro import tuner
                    return harness, tuner
            """,
            "src/repro/search/stream.py": """\
                from repro.searchspace import space
                from repro.search.engine import run
                from .engine import run as again
            """,
            "src/repro/searchspace/__init__.py": "",
            "src/repro/searchspace/space.py": "",
            "src/repro/tuner/__init__.py": "",
            "src/repro/tuner/runner.py": (
                "from repro.search.engine import run\n"
                "from repro.transfer import guard\n"
            ),
            "src/repro/transfer/__init__.py": "",
            "src/repro/transfer/guard.py": "",
            "src/repro/experiments/__init__.py": "",
            "src/repro/experiments/harness.py": "",
        })
        errors = check_layering(collect_modules(src))
        # Module-level and lazy imports alike, and only from the search
        # package: the tuner may import the searches and the transfer
        # layer.
        assert len(errors) == 4
        assert all("search/engine.py" in e for e in errors)
        found = sorted(
            (int(e.split(":")[1]), e.split(": ")[1].split()[2]) for e in errors
        )
        assert found == [(1, "repro.tuner"), (2, "repro.transfer"),
                         (5, "repro.experiments"), (6, "repro.tuner")]


class TestOutcomeHandlers:
    def test_catching_search_outcomes_outside_the_engine_is_flagged(
        self, tmp_path
    ):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/errors.py": """\
                class ReproError(Exception):
                    pass

                class EvaluationError(ReproError):
                    pass

                class BudgetExhaustedError(EvaluationError):
                    pass

                class EvaluationFailure(EvaluationError):
                    pass

                class EvaluationTimeout(EvaluationFailure):
                    pass

                class DeepTimeout(EvaluationTimeout):
                    pass
            """,
            "src/repro/search/__init__.py": "",
            "src/repro/search/engine.py": """\
                from repro.errors import BudgetExhaustedError

                def run(step):
                    try:
                        step()
                    except BudgetExhaustedError:
                        pass
            """,
            "src/repro/transfer/__init__.py": "",
            "src/repro/transfer/online.py": """\
                from repro import errors
                from repro.errors import (
                    BudgetExhaustedError, DeepTimeout, EvaluationError,
                )

                def loop(step):
                    try:
                        step()
                    except BudgetExhaustedError:
                        pass
                    except (ValueError, errors.DeepTimeout):
                        pass
                    except EvaluationError:
                        pass
                    except KeyError:
                        pass
            """,
        })
        errors = check_outcome_handlers(collect_modules(src))
        assert len(errors) == 2
        assert all("transfer/online.py" in e for e in errors)
        assert [e.split(": ")[1].split()[1] for e in errors] == [
            "BudgetExhaustedError", "DeepTimeout"
        ]


class TestSpecKnobs:
    def test_a_knob_beside_spec_is_flagged(self, tmp_path):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/search/__init__.py": "",
            "src/repro/search/pruning.py": """\
                def pruned_search(evaluator, nmax=100, *, pool_size=None,
                                  spec=None):
                    pass

                def gate(delta_percent, pool_size):
                    pass

                class Session:
                    def __init__(self, guard=None, spec=None):
                        pass
            """,
            "src/repro/experiments/__init__.py": "",
            "src/repro/experiments/harness.py": """\
                def build_session(problem, pool_size=None, spec=None):
                    pass

                def other(problem, pool_size=None, spec=None):
                    pass
            """,
        })
        errors = check_spec_knobs(collect_modules(src))
        assert len(errors) == 3
        assert [e.split(": ")[1].split()[0] for e in errors] == [
            "other", "pruned_search", "Session.__init__"
        ]
        assert "'pool_size'" in errors[1] and "'guard'" in errors[2]


class TestEnvReads:
    def test_only_allow_listed_reads_pass(self, tmp_path):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/exec/__init__.py": "",
            "src/repro/exec/executor.py": """\
                import os

                def default_workers():
                    return os.environ.get("REPRO_WORKERS")

                def task_timeout():
                    return os.environ.get("REPRO_TASK_TIMEOUT")
            """,
            "src/repro/exec/registry.py": """\
                import os

                def resume_enabled():
                    return os.environ["REPRO_RESUME"] != "0"
            """,
            "src/repro/chaos/__init__.py": "",
            "src/repro/chaos/plan.py": """\
                import os

                RATE = os.getenv("REPRO_CHAOS_RATE")
                SEEDED = "REPRO_CHAOS_SEED" in os.environ
                ENV = dict(os.environ)
            """,
        })
        errors = check_env_reads(collect_modules(src))
        assert [e.split(": ", 1)[1] for e in errors] == [
            "reads environment variable 'REPRO_CHAOS_RATE' — take the "
            "setting as an argument",
            "reads environment variable 'REPRO_CHAOS_SEED' — take the "
            "setting as an argument",
            "reads the environment by a non-literal name — take the "
            "setting as an argument",
            "reads environment variable 'REPRO_TASK_TIMEOUT' — take the "
            "setting as an argument",
        ]


class TestUnreachedModules:
    def _findings(self, tmp_path, files):
        src = _write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": "",
            **files,
        })
        errors = check_unreached_modules(collect_modules(src), str(tmp_path))
        return [e.split("module ")[1].split()[0] for e in errors]

    def test_module_nothing_imports_is_flagged(self, tmp_path):
        assert self._findings(tmp_path, {
            "src/repro/pkg/orphan.py": "def helper():\n    pass\n",
            "tests/test_orphan.py": "from repro.pkg.orphan import helper\n",
        }) == ["'repro.pkg.orphan'"]

    def test_module_only_an_init_reexports_is_flagged(self, tmp_path):
        assert self._findings(tmp_path, {
            "src/repro/pkg/__init__.py": (
                "from repro.pkg.shown import Shown\n"
                "from repro.pkg.used import TABLE\n"
                "__all__ = ['Shown', 'LOOKUP']\n"
                "LOOKUP = dict(TABLE)\n"
            ),
            "src/repro/pkg/shown.py": "class Shown:\n    pass\n",
            "src/repro/pkg/used.py": "TABLE = {}\n",
        }) == ["'repro.pkg.shown'"]

    def test_name_imported_through_its_package_reaches_the_module(
        self, tmp_path
    ):
        assert self._findings(tmp_path, {
            "src/repro/pkg/__init__.py": (
                "from repro.pkg.shown import Shown\n__all__ = ['Shown']\n"
            ),
            "src/repro/pkg/shown.py": "class Shown:\n    pass\n",
            "perfbench/bench.py": "from repro.pkg import Shown\n",
        }) == []

    def test_lazy_function_level_import_is_a_use(self, tmp_path):
        assert self._findings(tmp_path, {
            "src/repro/pkg/online.py": "def search():\n    pass\n",
            "src/repro/pkg/ablations.py": (
                "def run():\n"
                "    from repro.pkg import online\n"
                "    return online.search()\n"
            ),
            "examples/demo.py": "from repro.pkg.ablations import run\n",
        }) == []

    def test_makefile_entry_point_is_a_use(self, tmp_path):
        files = {
            "src/repro/pkg/campaign.py": "def main():\n    pass\n",
            "src/repro/__main__.py": "print('cli')\n",
        }
        assert self._findings(tmp_path, dict(files)) == [
            "'repro.__main__'", "'repro.pkg.campaign'"
        ]
        (tmp_path / "Makefile").write_text(
            "campaign:\n\t$(PYTHON) -m repro.pkg.campaign --seeds 2\n"
            "report:\n\t$(PYTHON) -m repro report\n"
        )
        assert self._findings(tmp_path, files) == []


class TestCli:
    def test_main_is_clean_on_this_repo(self, capsys):
        from repro.devtools.lint import main

        assert main() == 0
        assert "clean" in capsys.readouterr().out
