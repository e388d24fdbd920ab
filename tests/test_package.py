from types import ModuleType

import gbfrft


def test_public_names_resolve_and_none_is_a_module():
    assert gbfrft.__all__
    for name in gbfrft.__all__:
        assert not isinstance(getattr(gbfrft, name), ModuleType), name
