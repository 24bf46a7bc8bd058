"""Hand-transcribed closed forms versus the machine construction."""

import pytest

from dualracah.params import QR, R
from comparators import EXAMPLE_NAMES, UnknownExample, closed_form_comparators, compare_example
from conftest import SEEDS, std_params


def _check(name, N, pipe):
    family = R if name.startswith("R") else QR
    p = std_params(family, N)
    ex = closed_form_comparators(name, p)
    y = "eta" if name.endswith("/eta") else "1"
    s = pipe(family, N, ex.D).system()
    xp = pipe(family, N, ex.D).xpoly(SEEDS[y])
    t = pipe(family, N, ex.D).rectable(SEEDS[y]) if ex.r_nk is not None else None
    assert compare_example(ex, s, xp, t) == []
    assert xp.L == ex.L


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_examples_match_at_n6(name, pipe):
    _check(name, 6, pipe)


@pytest.mark.parametrize("name", ["R:{1}/1", "qR:{1}/1"])
def test_full_tables_at_n5(name, pipe):
    _check(name, 5, pipe)


def test_unknown_example():
    with pytest.raises(UnknownExample):
        closed_form_comparators("R:{3}/1", std_params(R, 5))


def test_family_mismatch():
    with pytest.raises(UnknownExample):
        closed_form_comparators("qR:{1}/1", std_params(R, 5))


def test_unicode_alias():
    ex = closed_form_comparators("R:{1}/η", std_params(R, 5))
    assert ex.name == "R:{1}/eta"
