"""scripts/mutants.py stays in step with the source: every mutant's text
occurs exactly once, so a rewrite that orphans one fails here and not only
in the slow mutation run."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs: @dataclass looks its module up in sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_mutant_text_occurs_once():
    mutants = load_mutants()
    assert mutants.check_texts(mutants.MUTANTS, mutants.ROOT) == []
