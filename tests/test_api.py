import qzak


def test_every_public_name_resolves():
    missing = [name for name in qzak.__all__ if not hasattr(qzak, name)]
    assert missing == []
    assert len(set(qzak.__all__)) == len(qzak.__all__)
