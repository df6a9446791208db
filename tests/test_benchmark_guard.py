"""The benchmark's traced mode wraps library functions by name and reads
fields of their results; a rename must fail here, not only in traced runs."""

import importlib
import importlib.util
from pathlib import Path

from fraisse_forge import (CatalogParams, build_star, endomorphisms,
                           enumerate_extensions, lift)
from fraisse_forge.presets import antichain

TRACING = Path(__file__).resolve().parent.parent / "forgebench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("forgebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = load_tracing()
    names = tracing.traced_names()
    assert len(names) == 22
    for mod_name, fns in tracing.TRACED.items():
        module = importlib.import_module(f"fraisse_forge.{mod_name}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"{mod_name}.{fn}"


def test_lift_components_carry_target_index():
    # the lift counters of the traced mode read `target_index` of each component
    root = antichain(2)
    catalog = enumerate_extensions(root, CatalogParams(1))
    star = build_star(root, catalog)
    lifted = [lift(phi, star, catalog) for phi in endomorphisms(root)]
    components = [c for l in lifted for c in l.components]
    assert components
    assert all(hasattr(c, "target_index") for c in components)
