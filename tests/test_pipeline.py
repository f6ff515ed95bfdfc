"""One trace, one Fox build and one solve per word, and the tracer's names.

The call counts are taken by wrapping each function in every stringlinks
module that holds it, the same way slbench's tracer attributes time.
"""

import importlib
import sys
from collections import Counter

import pytest

from stringlinks.cli import run

from conftest import CORPUS_DIR

COUNTED = {
    "trace": "diagram",
    "fox_matrix": "wirtinger",
    "solve_fox_system": "gassner",
    "burau": "gassner",
    "factorization_identity": "alexander",
}

# Per-word calls: verify builds one record for the word and one for the
# word stacked on itself; report builds one record.
TARGETS = {
    "report": {"trace": 1, "fox_matrix": 1, "solve_fox_system": 1, "burau": 0,
               "factorization_identity": 1},
    "verify": {"trace": 2, "fox_matrix": 2, "solve_fox_system": 2, "burau": 0,
               "factorization_identity": 1},
}


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    wrappers = {}
    for name, layer in COUNTED.items():
        fn = getattr(importlib.import_module("stringlinks." + layer), name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        wrappers[id(fn)] = (fn, counted)
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "stringlinks":
            continue
        for attr, value in list(vars(module).items()):
            fn, counted = wrappers.get(id(value), (None, None))
            if fn is value:
                monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("command", sorted(TARGETS))
@pytest.mark.parametrize("name", ["hopf.sl", "kink_on_hopf.sl"])
def test_calls_per_word(command, name, calls, capsys):
    assert run([command, str(CORPUS_DIR / name)]) == 0
    capsys.readouterr()
    assert {key: calls[key] for key in COUNTED} == TARGETS[command]


def test_traced_names_exist():
    from slbench import tracing

    for layer, names in tracing.TRACED.items():
        module = importlib.import_module("stringlinks." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), "%s.%s" % (layer, name)
