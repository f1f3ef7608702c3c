"""The settings table (``repro.settings``).

Every ``REPRO_*`` variable follows one rule: unset or blank gives the
default, and a value the parser rejects raises a ``ValueError`` naming
the variable.  ``memo_key`` feeds exactly the keyed settings, a cold
``run_workload`` reads no setting that could change its result without
being keyed, and the serve daemon and its supervisor refuse to start on
a malformed setting instead of crash-looping their workers.
"""

import pytest

from repro import settings
from repro.config import ALL_ON
from repro.evalharness.memo import Memoizer, memo_key
from repro.evalharness.runner import reset_invariant_caches, run_workload
from repro.machine import ALPHA_21164
from repro.runtime.overhead import DEFAULT_OVERHEAD
from repro.serve import __main__ as serve_main
from repro.serve import supervisor
from repro.workloads import WORKLOADS_BY_NAME

DOT = WORKLOADS_BY_NAME["dotproduct"]

#: A valid value other than the default, per setting.
VALID = {
    "REPRO_FAULTS": "specializer.entry:once",
    "REPRO_DEGRADE": "on",
    "REPRO_BACKEND": "reference",
    "REPRO_JOBS": "3",
    "REPRO_MEMO_DIR": "elsewhere",
    "REPRO_TASK_TIMEOUT": "60",
    "REPRO_HEARTBEAT_INTERVAL": "0.1",
    "REPRO_HEARTBEAT_TIMEOUT": "9",
}

#: A value each parser rejects; every non-blank path names a memo
#: directory, so ``REPRO_MEMO_DIR`` has none.
JUNK = {
    "REPRO_FAULTS": "specializer.nowhere",
    "REPRO_DEGRADE": "maybe",
    "REPRO_BACKEND": "bogus",
    "REPRO_JOBS": "many",
    "REPRO_MEMO_DIR": None,
    "REPRO_TASK_TIMEOUT": "-1",
    "REPRO_HEARTBEAT_INTERVAL": "0",
    "REPRO_HEARTBEAT_TIMEOUT": "soon",
}


@pytest.fixture
def clean_env(monkeypatch):
    for name in settings.SETTINGS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def _key() -> str:
    return memo_key(DOT, ALL_ON, ALPHA_21164, DEFAULT_OVERHEAD)


def test_every_setting_has_test_values():
    assert set(VALID) == set(JUNK) == set(settings.SETTINGS)


@pytest.mark.parametrize("name", sorted(settings.SETTINGS))
def test_setting_follows_the_rule(clean_env, name):
    setting = settings.SETTINGS[name]
    assert settings.read(name) == setting.default
    clean_env.setenv(name, "  ")
    assert settings.read(name) == setting.default
    unset_key = _key()

    if JUNK[name] is not None:
        clean_env.setenv(name, JUNK[name])
        with pytest.raises(ValueError, match=name):
            settings.read(name)

    clean_env.setenv(name, VALID[name])
    assert settings.read(name) != setting.default
    assert (_key() != unset_key) == setting.keyed


def test_task_timeout_leaves_the_key_alone(clean_env):
    base = _key()
    clean_env.setenv("REPRO_TASK_TIMEOUT", "60")
    assert _key() == base


def test_cold_run_reads_only_keyed_or_explained_settings(clean_env,
                                                         tmp_path):
    """The backend is left out of the key because counted backends are
    byte-identical and ``threaded_fast`` runs bypass the memo (README,
    "Environment variables")."""
    names = []
    inner = settings.read

    def spy(name):
        names.append(name)
        return inner(name)

    clean_env.setattr(settings, "read", spy)
    reset_invariant_caches()
    try:
        run_workload(DOT, memo=Memoizer(str(tmp_path)))
    finally:
        reset_invariant_caches()
    keyed = {name for name, s in settings.SETTINGS.items() if s.keyed}
    assert {"REPRO_FAULTS", "REPRO_DEGRADE", "REPRO_BACKEND"} <= set(names)
    assert set(names) <= keyed | {"REPRO_BACKEND"}


@pytest.mark.parametrize("name", sorted(n for n in JUNK if JUNK[n]))
def test_startup_refuses_a_malformed_setting(clean_env, name):
    clean_env.setenv(name, JUNK[name])
    error = serve_main.startup_error(None)
    assert error is not None and name in error


@pytest.mark.parametrize("entry", ["daemon", "supervisor"])
def test_daemon_and_supervisor_exit_2(clean_env, capsys, entry):
    def refused(*args, **kwargs):
        raise AssertionError("started despite a malformed setting")

    clean_env.setenv("REPRO_HEARTBEAT_INTERVAL", "0")
    clean_env.setattr(serve_main, "ServeDaemon", refused)
    clean_env.setattr("os.fork", refused)
    main = serve_main.main if entry == "daemon" else supervisor.main
    assert main(["--port", "0"]) == 2
    assert "bad REPRO_HEARTBEAT_INTERVAL" in capsys.readouterr().err
