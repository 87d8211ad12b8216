import aksvd


def test_every_export_resolves():
    assert len(set(aksvd.__all__)) == len(aksvd.__all__)
    for name in aksvd.__all__:
        getattr(aksvd, name)   # AttributeError names a stale export


def test_star_import():
    namespace = {}
    exec("from aksvd import *", namespace)
    assert set(aksvd.__all__) <= set(namespace)
