import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import duelbandit.games
from duelbandit.games import get_kernels
from duelbandit.rng import RngHandle


def _build_speedups(out_dir: Path):
    """Compile the committed `_speedups.c` with the system C compiler and
    load it; None when there is no compiler. A failed build raises."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    source = Path(duelbandit.games.__file__).with_name("_speedups.c")
    target = out_dir / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    build = subprocess.run(
        [compiler, "-O2", "-shared", "-fPIC", "-w",
         "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION",
         "-I" + sysconfig.get_paths()["include"], "-I" + np.get_include(),
         str(source), "-o", str(target)],
        capture_output=True, text=True,
    )
    if build.returncode != 0:
        raise RuntimeError(f"building {source.name} failed:\n{build.stderr}")
    spec = importlib.util.spec_from_file_location(
        "duelbandit.games._speedups", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The compiled backend: the installed extension if there is one, else
    the committed C source built into a temporary directory."""
    try:
        return get_kernels("c")
    except ImportError:
        pass
    module = _build_speedups(tmp_path_factory.mktemp("speedups"))
    if module is None:
        pytest.skip("no C compiler to build the compiled backend")
    return module


@pytest.fixture(params=["python", "c"])
def kernels(request):
    if request.param == "c":
        return request.getfixturevalue("compiled_kernels")
    return get_kernels(request.param)


@pytest.fixture
def rng():
    return RngHandle(12345)


def random_skew(k: int, gen: np.random.Generator, cap: float = 1.0) -> np.ndarray:
    raw = gen.uniform(-cap, cap, (k, k))
    upper = np.triu(raw, 1)
    return upper - upper.T


@pytest.fixture
def make_skew():
    return random_skew
