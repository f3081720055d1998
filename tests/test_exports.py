import artinsplit


def test_every_public_name_resolves():
    missing = [name for name in artinsplit.__all__ if not hasattr(artinsplit, name)]
    assert not missing
    assert len(set(artinsplit.__all__)) == len(artinsplit.__all__)
