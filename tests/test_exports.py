import types

import fractal_strings


def test_all_names_exactly_the_public_imports():
    public = {name for name, value in vars(fractal_strings).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(fractal_strings.__all__) == public
    assert fractal_strings.__all__ == sorted(fractal_strings.__all__)
