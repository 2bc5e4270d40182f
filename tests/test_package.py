"""The package's public surface."""

import ansim


def test_every_exported_name_resolves():
    missing = [name for name in ansim.__all__ if not hasattr(ansim, name)]
    assert missing == []
    assert len(set(ansim.__all__)) == len(ansim.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from ansim import *", namespace)
    assert set(ansim.__all__) <= namespace.keys()
