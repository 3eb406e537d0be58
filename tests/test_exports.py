"""The package's export list: every name resolves, once, in sorted order."""

from __future__ import annotations

import sandpiles


def test_all_names_resolve_once_and_sorted():
    names = sandpiles.__all__
    assert [n for n in names if not hasattr(sandpiles, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    namespace: dict = {}
    exec("from sandpiles import *", namespace)
    assert set(names) <= set(namespace)
