"""Only the Monte Carlo estimators load numpy; everything exact is stdlib-only.

The exact paths also leave out ``dataclasses`` and the ``inspect`` it pulls
in, which cost more to import than the rest of the package, and only
``verify`` loads the dense specification, ``logent.spec``.  Each case runs
in a fresh interpreter, since this test process has imported all of them.
"""

import functools
import os
import pathlib
import subprocess
import sys

import pytest

import logent

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
WATCHED = ("numpy", "dataclasses", "inspect", "logent.spec")


@functools.cache
def loaded_after(code: str) -> frozenset:
    """The watched modules in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    script = f"import sys, contextlib, io\n{code}\nprint(*set(sys.modules).intersection({WATCHED}))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return frozenset(done.stdout.splitlines()[-1].split())


def numpy_loaded_after(code: str) -> bool:
    return "numpy" in loaded_after(code)


def quiet_main(argv: list[str]) -> str:
    return f"from logent import cli\nwith contextlib.redirect_stdout(io.StringIO()): cli.main({argv!r})"


EXACT_PATHS = [
    pytest.param("import logent", id="import-logent"),
    pytest.param("import logent.cli", id="import-cli"),
    pytest.param(quiet_main(["entropy", "0,1|2"]), id="entropy"),
    pytest.param(quiet_main(["verify", "--max-n", "2"]), id="verify"),
]


@pytest.mark.parametrize("code", EXACT_PATHS)
def test_exact_paths_do_not_load_numpy(code):
    assert not numpy_loaded_after(code)


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
@pytest.mark.parametrize("code", EXACT_PATHS)
def test_exact_paths_do_not_load_dataclasses(code, module):
    if module in loaded_after("pass"):
        pytest.skip(f"a bare interpreter here already loads {module}")
    assert module not in loaded_after(code)


@pytest.mark.parametrize(
    "code",
    [
        *EXACT_PATHS[:3],
        pytest.param(quiet_main(["ops", "meet", "0,1|2", "0|1,2"]), id="ops-meet"),
        pytest.param(quiet_main(["joint", "0.1,0.2;0.3,0.4"]), id="joint"),
        pytest.param(quiet_main(["compare", "1/2,1/2", "1/4,3/4"]), id="compare"),
    ],
)
def test_production_does_not_load_the_specification(code):
    assert "logent.spec" not in loaded_after(code)


def test_verify_loads_the_specification():
    assert "logent.spec" in loaded_after(quiet_main(["verify", "--max-n", "2"]))


def test_sample_loads_numpy():
    assert numpy_loaded_after(quiet_main(["sample", "pairs", "1/2,1/2", "--trials", "10"]))


def test_sampling_names_resolve_through_the_package():
    import logent.sampling
    import logent.spec

    assert logent.pair_distinction_rate is logent.sampling.pair_distinction_rate
    assert "typical_message_stats" in dir(logent)
    for name in ("dit_set", "PairRelation", "product_measure"):
        assert getattr(logent, name) is getattr(logent.spec, name)
    for name in dir(logent):
        getattr(logent, name)
    with pytest.raises(AttributeError):
        logent.no_such_name
