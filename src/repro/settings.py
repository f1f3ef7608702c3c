"""Every ``REPRO_*`` environment variable, declared once.

:data:`SETTINGS` is the package's one table of environment settings:
each entry names a variable, its default and its parser, and says
whether it can change a :class:`~repro.evalharness.runner.RunResult`.
:func:`read` is the only place the package reads one, under one rule:
unset or blank gives the default, and a value the parser rejects
raises a :class:`ValueError` naming the variable.  The run memo key
(:func:`repro.evalharness.memo.memo_key`) feeds exactly the *keyed*
entries, :func:`keyed`; the others shape how runs are scheduled or
served, never what they compute.  README's "Environment variables"
table documents each one, and ``tests/test_knob_inventory.py`` checks
it against this table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from repro.machine import BACKENDS


@dataclass(frozen=True)
class Setting:
    name: str
    default: object
    #: Turns the stripped, non-blank text into a value; raises
    #: ``ValueError`` (or a subclass) on a value it rejects.
    parse: Callable[[str], object]
    #: Can the value change a ``RunResult``?  Then ``memo_key`` feeds it.
    keyed: bool = False


def _fault_spec(text: str) -> str:
    # Imported here: the fault registry reads this table.
    from repro.faults.registry import parse_spec
    parse_spec(text)
    return text


_FLAGS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _flag(text: str) -> bool:
    try:
        return _FLAGS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(_FLAGS)}") from None


def _one_of(what: str, choices: tuple) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"unknown {what} {text!r}")
        return text
    return parse


def at_least(cast, low, strict: bool = False) -> Callable[[str], object]:
    """A parser of a ``cast`` value no smaller than ``low`` (above it
    when ``strict``).  It raises ``ValueError`` on a bad value, so it is
    also an argparse ``type``, whose error names the bound."""
    bound = f"{'>' if strict else '>='} {low}"

    def parse(text: str):
        value = cast(text)
        if not (value > low if strict else value >= low):
            raise ValueError(f"must be {bound}")
        return value
    parse.__name__ = f"{cast.__name__} {bound}"
    return parse


SETTINGS: dict[str, Setting] = {setting.name: setting for setting in (
    # Run settings: the fault-injection spec (combined with
    # OptConfig.faults) and the degradation ladder (None: on when a
    # fault point that fires inside a run is armed).
    Setting("REPRO_FAULTS", "", _fault_spec, keyed=True),
    Setting("REPRO_DEGRADE", None, _flag, keyed=True),
    # Execution: counted backends give byte-identical stats, and the
    # runner never memoizes an uncounted (threaded_fast) run.
    Setting("REPRO_BACKEND", "threaded", _one_of("backend", BACKENDS)),
    # The offline harness's scheduling and cache directory.
    Setting("REPRO_JOBS", 1, at_least(int, 0)),
    Setting("REPRO_MEMO_DIR", ".repro_memo", str),
    Setting("REPRO_TASK_TIMEOUT", 0.0, at_least(float, 0)),
    # Serve supervision, in seconds.
    Setting("REPRO_HEARTBEAT_INTERVAL", 0.5,
            at_least(float, 0, strict=True)),
    Setting("REPRO_HEARTBEAT_TIMEOUT", 5.0,
            at_least(float, 0, strict=True)),
)}


def read(name: str):
    """The value of setting ``name`` in the current environment."""
    setting = SETTINGS[name]
    text = os.environ.get(name, "").strip()
    if not text:
        return setting.default
    try:
        return setting.parse(text)
    except ValueError as err:
        raise type(err)(f"{name}={text!r}: {err}") from None


def keyed() -> tuple:
    """``(name, value)`` of every setting that can change a run."""
    return tuple((name, read(name)) for name, setting in SETTINGS.items()
                 if setting.keyed)
