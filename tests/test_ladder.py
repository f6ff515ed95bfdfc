"""tools/ladder.py: the rung recipe, the verify split and its per-stage cap."""

import importlib.util
import random
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"
spec = importlib.util.spec_from_file_location("ladder", PATH)
ladder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ladder)


def test_rung_sizes_follow_the_recipe():
    assert len(ladder.rung_word("t8").events) == 22
    assert len(ladder.rung_word("t16").events) == 48


def test_t8_split_runs_every_stage():
    result = ladder.run_rung("t8", cap=60.0)
    assert list(result["stages"]) == list(ladder.STAGES)
    assert ladder.STAGES[-2:] == ("link minors", "closure minors")
    assert {e["status"] for e in result["stages"].values()} == {"ok"}
    assert "| t8 (22 events) |" in ladder.table([result])


def test_a_cap_hit_is_a_result():
    # a stage past its cap is recorded with the cap as its time, and the
    # stages that need its value are not run
    result = ladder.run_rung("t8", cap=1e-4)
    stages = result["stages"]
    assert stages["gassner(L)"] == {"s": 1e-4, "status": "cap"}
    assert stages["compare"] == {"s": None, "status": "not run"}
    assert stages["walk compare"] == {"s": None, "status": "not run"}
    assert stages["taylor 3"] == stages["taylor 6"] == {"s": None, "status": "not run"}
    assert stages["closure minors"] == {"s": None, "status": "not run"}


def test_unknown_rung_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        ladder.main(["t9"])
    assert exc.value.code == 2


def test_braid_rungs_follow_the_recipe():
    names = ["n%dc%d" % (n, c) for n in (3, 4, 5) for c in (16, 32, 48)] + ["n3c96", "n4c64"]
    assert set(names) <= set(ladder.RUNGS)
    for name in names:
        word = ladder.rung_word(name)
        n, c = ladder.RUNGS[name][:2]
        assert word.n == n and len(word.events) == c, name  # c even: pairs fill it exactly
        assert {g.pos for g in word.events} <= set(range(1, n))
    # random.Random(7): the first generator drawn on 3 strands, doubled
    rng = random.Random(7)
    first = rng.randrange(1, 3) * rng.choice((1, -1))
    events = ladder.rung_word("n3c16").events
    assert events[0] == events[1] and events[0].pos == abs(first)
    assert type(events[0]).__name__ == ("CrossPos" if first > 0 else "CrossNeg")


def test_g_times_g_is_the_product_verify_uses():
    from stringlinks import cli
    from stringlinks.gassner import squared
    assert ladder.squared is squared and cli.squared is squared
