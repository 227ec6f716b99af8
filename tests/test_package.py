import portcap


def test_all_names_resolve_once():
    names = portcap.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(portcap, name), name
