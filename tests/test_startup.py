"""The start-up contract: a command loads only the code it runs.

A cached ``repro suite`` replay simulates nothing, so it must not pay for
importing the simulator, the gateway or the process pool; the package
exports that would drag them in resolve on first use.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser
from repro.exec.fingerprint import SCAN_STORE

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = ("repro", "repro.core", "repro.obs", "repro.exec",
                 "repro.sim", "repro.atm")

#: What a warm replay must never load.
NOT_ON_REPLAY = tuple(f"repro.{name}" for name in (
    "atm", "tcp", "fluid", "baselines", "scenarios", "serve", "lint",
    "fuzz", "perf")) + ("asyncio", "multiprocessing", "concurrent.futures")

#: Runs the CLI in a fresh interpreter, then writes its exit status,
#: every module it loaded and how often it called ``ast.parse`` to
#: argv[1].
RUN_AND_LIST_MODULES = (
    "import ast, json, sys\n"
    "parses = []\n"
    "real_parse = ast.parse\n"
    "def counting_parse(*args, **kwargs):\n"
    "    parses.append(args[1:2])\n"
    "    return real_parse(*args, **kwargs)\n"
    "ast.parse = counting_parse\n"
    "from repro.cli import main\n"
    "status = main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    json.dump({'status': status, 'modules': sorted(sys.modules),\n"
    "               'parses': len(parses)}, fh)\n")


def _fresh(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)


# ----------------------------------------------------------------------
# what a cached replay pays for
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    """A cold suite run, then a cached replay in a fresh interpreter:
    the replay's report, and the import-scan store's bytes before and
    after it."""
    tmp_path = tmp_path_factory.mktemp("replay")
    cache = tmp_path / "cache"
    suite = ["suite", "--experiments", "E01", "--scale", "0.05",
             "--cache-dir", str(cache), "--manifest", ""]
    cold = _fresh("-m", "repro", *suite, "-j", "1", cwd=tmp_path)
    assert cold.returncode == 0, cold.stdout + cold.stderr
    store = cache / SCAN_STORE
    before = store.read_bytes()

    listing = tmp_path / "modules.json"
    warm = _fresh("-c", RUN_AND_LIST_MODULES, str(listing), *suite,
                  "--assert-cached", "--health", cwd=tmp_path)
    assert warm.returncode == 0, warm.stdout + warm.stderr
    return {**json.loads(listing.read_text()), "store_before": before,
            "store_after": store.read_bytes()}


def test_cached_replay_loads_no_simulator(replay):
    assert replay["status"] == 0
    modules = replay["modules"]
    loaded = [m for m in modules if any(
        m == banned or m.startswith(banned + ".")
        for banned in NOT_ON_REPLAY)]
    assert loaded == []
    ours = [m for m in modules if m == "repro" or m.startswith("repro.")]
    assert len(ours) <= 30, ours


def test_cached_replay_parses_no_source(replay):
    # the cold run stored every closure module's import scan beside its
    # results; the replay reads them and, having scanned nothing, writes
    # nothing
    assert replay["status"] == 0
    assert replay["parses"] == 0
    assert replay["store_after"] == replay["store_before"]


# ----------------------------------------------------------------------
# lazy package exports
# ----------------------------------------------------------------------
def _type_checking_pairs(package: str) -> set[tuple[str, str]]:
    """(name, module) for every import under ``if TYPE_CHECKING:``."""
    path = SRC.joinpath(*package.split(".")) / "__init__.py"
    pairs = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom), ast.dump(stmt)
                pairs.update((alias.asname or alias.name, stmt.module)
                             for alias in stmt.names)
    return pairs


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_type_checking_imports_match_the_lazy_table(package):
    module = importlib.import_module(package)
    pairs = _type_checking_pairs(package)
    assert pairs
    assert pairs == set(module._EXPORTS.items())
    assert set(module.__all__) - {"__version__"} == set(module._EXPORTS)


def test_every_export_resolves_in_a_fresh_interpreter(tmp_path):
    check = (
        "import importlib, sys\n"
        f"for package in {LAZY_PACKAGES!r}:\n"
        "    module = importlib.import_module(package)\n"
        "    for name in module.__all__:\n"
        "        getattr(module, name)\n"
        "from repro import AtmNetwork\n"
        "from repro.core import PhantomAlgorithm\n"
        "print('ok')\n")
    done = _fresh("-c", check, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_importing_a_package_loads_none_of_its_exports(tmp_path):
    check = (
        "import importlib, sys\n"
        f"for package in {LAZY_PACKAGES!r}:\n"
        "    importlib.import_module(package)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro')))\n")
    done = _fresh("-c", check, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(sorted(LAZY_PACKAGES))


def test_unknown_names_still_raise_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.core.no_such_name


# ----------------------------------------------------------------------
# the parser builds one subcommand's arguments at a time
# ----------------------------------------------------------------------
ARGVS = {
    "list": ["list"],
    "run": ["run", "atm.onoff", "--set", "algorithm=capc",
            "--set", "seed=3", "--trace", "t.jsonl", "--manifest", ""],
    "maxmin": ["maxmin", "--link", "l1=150", "--session", "a=l1",
               "--factor", "5"],
    "lint": ["lint", "src", "--format", "json", "--select", "DET001"],
    "perf": ["perf", "--workload", "e01_staggered", "--scale", "0.1",
             "--output", ""],
    "obs": ["obs", "summarize", "trace.jsonl"],
    "fluid": ["fluid", "many", "--cohorts", "10", "--greedy", "3"],
    "suite": ["suite", "--scale", "0.05", "--assert-cached", "--health",
              "-j", "2"],
    "sweep": ["sweep", "--scenario", "atm.staggered",
              "--param", "duration=0.1,0.2", "--set", "n_sessions=3"],
    "fuzz": ["fuzz", "run", "--budget", "4", "--seed", "1"],
    "serve": ["serve", "--port", "0", "--no-admission"],
}


def test_every_subcommand_has_a_representative_argv():
    assert set(ARGVS) == set(COMMANDS)


@pytest.mark.parametrize("command", sorted(ARGVS))
def test_one_subcommand_parser_parses_like_the_full_one(command):
    argv = ARGVS[command]
    assert (build_parser(command).parse_args(argv)
            == build_parser().parse_args(argv))
