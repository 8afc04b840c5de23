import types

import perfcode


def test_all_matches_the_package():
    """__all__ lists each public name once, and each listed name resolves."""
    assert len(perfcode.__all__) == len(set(perfcode.__all__))
    for name in perfcode.__all__:
        assert hasattr(perfcode, name), name
    public = {
        name
        for name, value in vars(perfcode).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(perfcode.__all__)
