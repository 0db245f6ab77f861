"""Fuzz of the config boundary: ``vropt run`` on mutated copies of a tiny
``demos/config/race.ini`` either runs (exit 0 or 3, nothing on stderr) or
refuses the config in one ``error: `` line (exit 2).  A traceback, a warning
or exit 1 fails.

Each example drops, repeats, re-values or misspells keys and section names.
A drawn value is never a mid-size number: it is zero, negative, not finite,
or far past any size that could be allocated (10**20, 1e300), so no example
allocates or runs anything large.
"""

import configparser
import contextlib
import io
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vropt.cli import main

RACE_INI = Path(__file__).resolve().parent.parent / "demos/config/race.ini"
TINY = {"experiment": {"passes": "2", "seeds": "0"},
        "dataset": {"n": "20", "d": "3"}}
VALUES = ["nan", "inf", "-inf", "0", "-1", "-0.5", "100000000000000000000",
          "1e300", ""]


def _tiny_race():
    """race.ini's sections and keys, as configparser reads them, with n = 20,
    d = 3, two passes and one seed."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(RACE_INI)
    for section, keys in TINY.items():
        cp[section].update(keys)
    return [(name, list(cp[name].items())) for name in cp.sections()]


TINY_RACE = _tiny_race()


def _render(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys)
                   + "\n" for name, keys in sections)


def _misspell(draw, word: str) -> str:
    at = draw(st.integers(0, len(word) - 1))
    char = draw(st.sampled_from("abcdefghijklmnopqrstuvwxyz_.".replace(
        word[at], "")))
    return word[:at] + char + word[at + 1:]


# random text holds no digit, so it never reads as a mid-size n or d, and no
# control character, so it stays on its line
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Nd")),
                max_size=10)


@st.composite
def mutated_race(draw):
    sections = [(name, list(keys)) for name, keys in TINY_RACE]
    for _ in range(draw(st.integers(1, 2))):
        s = draw(st.integers(0, len(sections) - 1))
        name, keys = sections[s]
        # half the mutations re-value a key, most of them to a listed value
        kind = draw(st.sampled_from(["drop", "repeat", "key", "section"]
                                    + ["value"] * 4))
        if kind == "section":
            sections[s] = (_misspell(draw, name), keys)
            continue
        if not keys:
            continue
        k = draw(st.integers(0, len(keys) - 1))
        key, value = keys[k]
        if kind == "drop":
            del keys[k]
        elif kind == "repeat":
            keys.insert(k, (key, value))
        elif kind == "value":
            value = draw(st.sampled_from(VALUES + [None]))  # None: text
            keys[k] = (key, draw(_TEXT) if value is None else value)
        else:
            keys[k] = (_misspell(draw, key), value)
    return _render(sections)


@settings(max_examples=500, deadline=2000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_race())
def test_mutated_race_ini_runs_or_is_refused(tmp_path_factory, text):
    work = tmp_path_factory.getbasetemp() / "config_fuzz"
    work.mkdir(exist_ok=True)
    cfg = work / "race.ini"
    cfg.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        # --out keeps the output in the test's directory, whatever a
        # mutated [experiment] out says
        rc = main(["run", str(cfg), "--out", str(work / "out")])
    err = err.getvalue()
    if rc in (0, 3):
        assert err == ""
    else:
        assert rc == 2, (rc, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
