"""Package-level hygiene: imports, exports, versioning."""

import importlib
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro", "repro.core", "repro.sim", "repro.machine", "repro.runtime",
    "repro.pvm", "repro.perfmodel", "repro.experiments", "repro.exec",
    "repro.faults", "repro.obs", "repro.server", "repro.sdk",
    "repro.apps", "repro.apps.pic", "repro.apps.fem", "repro.apps.nbody",
    "repro.apps.ppm", "repro.apps.kernels", "repro.cli",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_obs_import_loads_neither_numpy_nor_experiments():
    """The observability layer stays importable without the experiment
    registry, whose application modules pull in NumPy."""
    import pathlib

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import repro.obs; "
            "print(sorted({'numpy', 'repro.experiments'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_top_level_convenience_exports():
    machine = repro.Machine(repro.spp1000())
    assert machine.config.n_cpus == 16
    assert repro.MemClass.FAR_SHARED.value == "far_shared"


def test_py_typed_marker_exists():
    import pathlib

    pkg_dir = pathlib.Path(repro.__file__).parent
    assert (pkg_dir / "py.typed").exists()


@pytest.mark.parametrize("name", PACKAGES)
def test_every_module_has_a_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, name
