"""The package's public surface: every export resolves and comes from a module."""

import inspect

import secgauss
from secgauss import lp, model, quantizer, schemes, sim, simplex, verify


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


def test_public_keyword_settings():
    # Every public parameter with a default, as (name, parameter).  A new
    # setting must be added here on purpose.
    found = set()
    for module in (secgauss, simplex, verify):
        for name in module.__all__:
            obj = getattr(module, name)
            # The error classes take Exception's arguments, which have no signature.
            if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, Exception)):
                found.update((name, p.name) for p in inspect.signature(obj).parameters.values()
                             if p.default is not inspect.Parameter.empty)
    assert found == {
        ("GaussianSource", "mean"),
        ("GaussianSource", "variance"),
        ("GreedyQuantizedScheme", "source"),
        ("GreedyQuantizedScheme", "n_max"),
        ("build_quantized_pmf", "max_support"),
        ("enumerate_subset_candidates", "mode"),
    }
