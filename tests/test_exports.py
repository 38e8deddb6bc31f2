"""The package's public names, each imported from its module on first use."""

import pytest

import homeactivity


def test_every_public_name_resolves_and_is_listed():
    star = {}
    exec("from homeactivity import *", star)
    listed = dir(homeactivity)
    for name in homeactivity.__all__:
        value = getattr(homeactivity, name)
        assert star[name] is value, name
        assert name in listed, name
    assert set(star) - {"__builtins__"} == set(homeactivity.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'homeactivity' has no attribute 'fuse'"):
        homeactivity.fuse  # noqa: B018
    assert not hasattr(homeactivity, "SampleSeriesX")
