"""Fixtures shared by the hardware-model tests."""

import pytest

from repro.hw import isa


@pytest.fixture
def region_sources(monkeypatch):
    """The body lines of every region and block that the ISA region
    compiler generates during the test, by function name."""
    sources = {}
    define = isa._define

    def capture(name, params, body):
        sources[name] = body
        return define(name, params, body)

    monkeypatch.setattr(isa, "_define", capture)
    return sources
