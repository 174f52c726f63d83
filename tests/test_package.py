import starprod


def test_all_names_resolve_without_duplicates():
    assert len(starprod.__all__) == len(set(starprod.__all__))
    for name in starprod.__all__:
        assert hasattr(starprod, name), name
