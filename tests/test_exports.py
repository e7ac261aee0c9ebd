"""The package's public names: ``spotar.__all__`` is what ``import *`` gives."""

from __future__ import annotations

import spotar


def test_every_name_in_all_resolves():
    assert len(set(spotar.__all__)) == len(spotar.__all__)
    missing = [name for name in spotar.__all__ if not hasattr(spotar, name)]
    assert missing == []


def test_star_import_gives_exactly_all():
    namespace: dict[str, object] = {}
    exec("from spotar import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(spotar.__all__)
    assert all(namespace[name] is getattr(spotar, name) for name in namespace)
