import ast
import inspect

import arrcomp


def _imported_public_names():
    tree = ast.parse(inspect.getsource(arrcomp))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_all_is_sorted_without_duplicates():
    assert arrcomp.__all__ == sorted(arrcomp.__all__)
    assert len(set(arrcomp.__all__)) == len(arrcomp.__all__)


def test_all_entries_resolve():
    for name in arrcomp.__all__:
        assert getattr(arrcomp, name, None) is not None, name


def test_all_lists_exactly_the_imported_names():
    assert set(arrcomp.__all__) == set(_imported_public_names())
