import kellymarket
from kellymarket import clearing, growth, kelly, montecarlo


def test_exports_are_the_modules_public_names():
    modules = (clearing, growth, kelly, montecarlo)
    names = [name for module in modules for name in module.__all__]
    assert kellymarket.__all__ == sorted(names)
    assert len(set(names)) == len(names) == 40
    for module in modules:
        for name in module.__all__:
            assert getattr(kellymarket, name) is getattr(module, name)
