"""Package-level hygiene: imports, exports, versioning."""

import importlib
import json
import pathlib
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


SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

#: the experiment table as ``python -m repro list`` shows it
LISTING = [
    ("fig2", "Cost of fork-join"),
    ("fig3", "Cost of barrier synchronisation"),
    ("fig4", "Cost of round-trip message passing"),
    ("ablations", "Section 6 quantitative observations"),
    ("contention", "Message-traffic contention (ref [24] observation)"),
    ("degraded", "Barrier and message costs under failed SCI rings"),
    ("fig6", "PIC time to solution and speed-up"),
    ("fig7", "FEM performance on small and large data sets"),
    ("fig8", "N-body performance scaling"),
    ("memclass", "Memory-class placement ablation (beyond the paper)"),
    ("scale128", "Predicted scaling to 128 processors (future work)"),
    ("table1", "PIC performance on 1 C90 processor"),
    ("table2", "PPM performance"),
]

#: what a run of the discrete-event experiments must not import
MODEL_SIDE = ("numpy", "repro.apps", "repro.perfmodel")


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line, as
    JSON."""
    code = f"import json, sys; sys.path.insert(0, {SRC!r})\n{code}"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    """Each package's ``__all__`` resolves on a bare import, in a fresh
    interpreter, so no subpackage an earlier test imported can fill a
    gap."""
    missing = _fresh(
        f"import importlib; module = importlib.import_module({name!r})\n"
        "print(json.dumps([symbol for symbol in getattr(module, '__all__', [])"
        " if not hasattr(module, symbol)]))")
    assert missing == [], f"{name} does not define {missing}"


def _loaded(modules, prefixes):
    return sorted(name for name in modules
                  if any(name == p or name.startswith(p + ".")
                         for p in prefixes))


def test_obs_import_loads_neither_numpy_nor_experiments():
    """The observability layer stays importable without the experiment
    table, whose application modules pull in NumPy."""
    loaded = _fresh("import repro.obs; print(json.dumps(list(sys.modules)))")
    assert _loaded(loaded, ("numpy", "repro.experiments")) == []


def test_experiments_import_loads_no_experiment_module():
    listing, loaded = _fresh(
        "import repro.experiments as e\n"
        "print(json.dumps([list(e.list_experiments().items()), "
        "list(sys.modules)]))")
    assert [tuple(row) for row in listing] == LISTING
    assert _loaded(loaded, ("repro.experiments",)) == [
        "repro.experiments", "repro.experiments.base"]
    assert _loaded(loaded, MODEL_SIDE) == []


@pytest.mark.parametrize("seed", [[], ["--seed", "7"]])
def test_des_run_imports_its_module_and_no_model(seed):
    """``python -m repro fig2 --quick --no-cache`` imports fig2's module
    and neither NumPy nor the application models."""
    loaded = _fresh(
        "import runpy\n"
        f"sys.argv = ['repro', 'fig2', '--quick', '--no-cache', *{seed!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    assert not stop.code, stop.code\n"
        "print(json.dumps(list(sys.modules)))")
    assert "repro.experiments.fig2_forkjoin" in loaded
    assert _loaded(loaded, MODEL_SIDE) == []


def test_planning_the_des_experiments_loads_no_numpy():
    loaded = _fresh(
        "from repro.core import spp1000\n"
        "from repro.exec import plan_units\n"
        "for exp in ('fig2', 'fig3', 'fig4', 'contention', 'degraded'):\n"
        "    plan_units(exp, spp1000(), quick=True)\n"
        "print(json.dumps(list(sys.modules)))")
    assert "repro.experiments.degraded" in loaded
    assert _loaded(loaded, MODEL_SIDE) == []
    # only a run's parallel path imports the process machinery
    assert _loaded(loaded, ("multiprocessing",)) == []
    # the simulator layers the DES experiments run on, and nothing more
    assert _loaded(loaded, ("repro.sim", "repro.runtime", "repro.pvm")) == [
        "repro.pvm", "repro.pvm.buffers", "repro.pvm.message",
        "repro.pvm.system",
        "repro.runtime", "repro.runtime.barrier", "repro.runtime.runtime",
        "repro.runtime.scheduler",
        "repro.sim", "repro.sim.engine", "repro.sim.errors",
        "repro.sim.process", "repro.sim.resources", "repro.sim.trace"]


#: what a run of the analytic experiments must not import: NumPy, and
#: the simulated machine with the layers that run on it
SIMULATOR_SIDE = ("numpy", "repro.machine", "repro.faults", "repro.pvm",
                  "repro.runtime.runtime", "repro.runtime.barrier")


def test_running_the_model_experiments_loads_no_numpy_and_no_machine():
    loaded = _fresh(
        "from repro.core import spp1000\n"
        "from repro.exec import execute\n"
        "for exp in ('fig6', 'fig7', 'fig8', 'memclass', 'scale128',\n"
        "            'table1', 'table2'):\n"
        "    execute(exp, spp1000(n_hypernodes=2), quick=True)\n"
        "print(json.dumps(list(sys.modules)))")
    assert "repro.experiments.table2_ppm" in loaded
    assert _loaded(loaded, SIMULATOR_SIDE) == []
    # each application's package root, workload and counts, no numerics
    assert _loaded(loaded, ("repro.apps",)) == [
        "repro.apps",
        "repro.apps.fem", "repro.apps.fem.counts", "repro.apps.fem.workload",
        "repro.apps.nbody", "repro.apps.nbody.counts",
        "repro.apps.nbody.workload",
        "repro.apps.pic", "repro.apps.pic.counts", "repro.apps.pic.workload",
        "repro.apps.ppm", "repro.apps.ppm.counts", "repro.apps.ppm.workload"]


def test_model_run_imports_no_numpy_and_no_machine():
    """``python -m repro fig7 --quick --no-cache`` runs on the phase
    model alone."""
    loaded = _fresh(
        "import runpy\n"
        "sys.argv = ['repro', 'fig7', '--quick', '--no-cache']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    assert not stop.code, stop.code\n"
        "print(json.dumps(list(sys.modules)))")
    assert "repro.experiments.fig7_fem" in loaded
    assert _loaded(loaded, SIMULATOR_SIDE) == []


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
