"""Public-API consistency checks.

Every ``__all__`` name of every module must resolve (the module list is
walked, not hand-kept, so a stale entry a deletion leaves behind
fails); the lazy top-level re-exports must work; the version is
single-sourced.
"""

import importlib
import pkgutil

import pytest

import repro

_WALKED = list(pkgutil.walk_packages(repro.__path__, prefix="repro."))
MODULES = ["repro"] + sorted(info.name for info in _WALKED)
PACKAGES = ["repro"] + sorted(info.name for info in _WALKED if info.ispkg)


class TestImports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", MODULES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", []):
            assert hasattr(module, export), f"{name}.{export} missing"

    def test_every_submodule_imports(self):
        """Walk the whole tree: no module may fail to import."""
        failures = []
        for name in MODULES:
            try:
                importlib.import_module(name)
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append((name, exc))
        assert not failures


class TestLazyTopLevel:
    def test_flat_api(self):
        assert repro.TransferSession is not None
        assert repro.get_machine("sandybridge").cores == 8
        assert repro.get_kernel("lu").name == "LU"
        assert repro.RandomForestRegressor is not None
        assert repro.SearchSpace is not None
        assert repro.TunerSpec().fingerprint() == repro.DEFAULT_SPEC.fingerprint()

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        import repro.errors as errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and name != "ReproError":
                assert issubclass(obj, errors.ReproError), name
