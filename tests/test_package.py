import spinhf


def test_every_exported_name_resolves():
    missing = [name for name in spinhf.__all__ if not hasattr(spinhf, name)]
    assert missing == []
