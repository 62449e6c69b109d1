"""The package's public surface: every export resolves and comes from a module."""

import secgauss
from secgauss import lp, model, quantizer, schemes, sim


def test_every_export_resolves():
    missing = [name for name in secgauss.__all__ if not hasattr(secgauss, name)]
    assert missing == []


def test_exports_are_the_modules_exports():
    # A name removed from a module must leave the package too, and no
    # module's public name may be left out of it.
    want = {"InfeasibleError", "SolverError", "__version__"}
    for module in (model, quantizer, schemes, lp, sim):
        want.update(module.__all__)
    assert len(secgauss.__all__) == len(set(secgauss.__all__))
    assert set(secgauss.__all__) == want
