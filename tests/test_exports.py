"""The package's public names: ``hasseschmidt.__all__`` matches what it imports."""

import inspect

import hasseschmidt


def test_all_has_no_duplicates_and_every_name_resolves():
    names = hasseschmidt.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(hasseschmidt, name), name


def test_every_public_class_and_function_is_exported():
    """__all__ may also list values such as QQ."""
    public = {
        name
        for name, value in vars(hasseschmidt).items()
        if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
    }
    assert public - set(hasseschmidt.__all__) == set()


def test_the_ordinary_derivation_type_is_gone():
    """An ordinary derivation is ``integrate(values, 1)``."""
    assert "Derivation" not in hasseschmidt.__all__
    assert not hasattr(hasseschmidt, "Derivation")
    assert not hasattr(hasseschmidt.HSDerivation, "degree1")
