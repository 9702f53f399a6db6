"""The package's public surface."""

import gsalg


def test_all_exports_resolve():
    missing = [name for name in gsalg.__all__ if not hasattr(gsalg, name)]
    assert missing == []
    assert len(set(gsalg.__all__)) == len(gsalg.__all__)
