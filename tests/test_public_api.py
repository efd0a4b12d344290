import cholcorr


def test_star_import_binds_every_exported_name():
    # a stale string in __all__ makes the star import raise AttributeError
    namespace = {}
    exec("from cholcorr import *", namespace)
    assert [name for name in cholcorr.__all__ if name not in namespace] == []
    assert len(set(cholcorr.__all__)) == len(cholcorr.__all__)
