import quditcolor


def test_public_names_resolve_once():
    names = quditcolor.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(quditcolor, name)]
    assert missing == []


def test_star_import_brings_every_public_name():
    namespace = {}
    exec("from quditcolor import *", namespace)
    assert set(quditcolor.__all__) <= set(namespace)
