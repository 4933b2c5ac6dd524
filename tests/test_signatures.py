"""Each model fact reaches a function once: the lattice through the
`Potential` that holds it, N through the state, hbar as a number.  Each
module exports only what it defines."""

import importlib
import inspect
import pkgutil

import fermiflow
from fermiflow.model import Lattice, Potential


def _public_functions():
    """(qualified name, function) for every public function of every
    fermiflow module and every public method of the classes they define."""
    for info in pkgutil.iter_modules(fermiflow.__path__):
        mod = importlib.import_module(f"fermiflow.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                yield from ((f"{mod.__name__}.{name}.{m}", fn) for m, fn in vars(obj).items()
                            if not m.startswith("_") and inspect.isfunction(fn))
            elif callable(obj):
                yield f"{mod.__name__}.{name}", obj


def test_no_public_function_takes_a_potential_and_a_lattice():
    names = []
    for name, fn in _public_functions():
        sig = inspect.signature(fn)
        params = [p.annotation for p in sig.parameters.values()]
        annotations = params + [sig.return_annotation]
        assert not (Potential in params and Lattice in params), name
        assert "ModelParams" not in {getattr(a, "__name__", str(a)) for a in annotations}, name
        names.append(name)
    assert "fermiflow.meanfield.evolve" in names and "fermiflow.fock.hamiltonian" in names
    assert "ModelParams" not in fermiflow.__all__


def test_every_exported_name_is_defined_in_its_module():
    # a deleted type or function cannot linger in a module's __all__
    for info in pkgutil.iter_modules(fermiflow.__path__):
        mod = importlib.import_module(f"fermiflow.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name}"
            owner = getattr(getattr(mod, name), "__module__", mod.__name__)
            assert owner == mod.__name__, f"{mod.__name__}.__all__ re-exports {owner}.{name}"
    assert all(hasattr(fermiflow, name) for name in fermiflow.__all__)
