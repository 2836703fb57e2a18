import cimark


def test_star_import_binds_every_export():
    """Every name in `cimark.__all__` resolves, so `from cimark import *`
    cannot break when an export is deleted."""
    namespace = {}
    exec("from cimark import *", namespace)
    assert set(cimark.__all__) <= namespace.keys()
    assert len(set(cimark.__all__)) == len(cimark.__all__)
