"""Shared fixtures: environment isolation and cached enumeration results."""

from __future__ import annotations

import pytest

import spanlab as S


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    """Keep an ambient SPANLAB_STORE from leaking into any test."""
    monkeypatch.delenv("SPANLAB_STORE", raising=False)


def _records(spec: str):
    return list(S.ExtremalEnumeration(S.parse_group_spec(spec)).records())


@pytest.fixture(scope="session")
def z15_records():
    return _records("Z15")


@pytest.fixture(scope="session")
def z16_records():
    return _records("Z16")


@pytest.fixture(scope="session")
def z21_records():
    return _records("Z21")
