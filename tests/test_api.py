import subrec


def test_public_names_resolve_once_and_star_import_binds_exactly_them():
    names = subrec.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(subrec, name) is not None
    namespace = {}
    exec("from subrec import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(names)
