"""The package's public surface."""

import jetsym


def test_every_exported_name_resolves():
    missing = [name for name in jetsym.__all__ if not hasattr(jetsym, name)]
    assert not missing
    assert len(set(jetsym.__all__)) == len(jetsym.__all__)
