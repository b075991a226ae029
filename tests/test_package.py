"""The package's public surface."""

from __future__ import annotations

import spworks as sw


def test_every_public_name_resolves():
    missing = [name for name in sw.__all__ if not hasattr(sw, name)]
    assert not missing
    assert len(set(sw.__all__)) == len(sw.__all__)
