"""The package's public names."""

import dialact


def test_every_exported_name_resolves_and_is_listed_once():
    assert len(set(dialact.__all__)) == len(dialact.__all__)
    for name in dialact.__all__:
        assert hasattr(dialact, name), name
