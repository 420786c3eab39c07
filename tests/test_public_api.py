import ubssvc


def test_every_exported_name_resolves():
    missing = [name for name in ubssvc.__all__ if not hasattr(ubssvc, name)]
    assert not missing, f"stale exports in ubssvc.__all__: {missing}"
    namespace = {}
    exec("from ubssvc import *", namespace)
    assert set(ubssvc.__all__) <= namespace.keys()
