"""scripts/mutants.py stays in step with the source: every mutant's text
occurs exactly once, so a rewrite that orphans one fails here and not only
in the slow mutation run."""

import importlib.util
import sys
import time
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


def fake_checkout(root, statement):
    """A checkout whose one test runs the given statement."""
    (root / "src").mkdir()
    (root / "test_fake.py").write_text(f"def test_fake():\n    {statement}\n")
    return root


def test_run_past_the_memory_limit_counts_as_killed(tmp_path):
    # numpy.zeros only reserves address space, so no page is touched even
    # where the limit were missing
    mutants = load_mutants()
    size = 2 * mutants.MEMORY_LIMIT
    checkout = fake_checkout(tmp_path, f"import numpy; numpy.zeros({size}, dtype=numpy.uint8)")
    assert mutants.run_tests(checkout, ["test_fake.py"]) == (
        False, "stopped at the 2 GiB memory limit")


def test_run_past_the_time_limit_counts_as_killed(tmp_path, monkeypatch):
    mutants = load_mutants()
    monkeypatch.setattr(mutants, "TIME_LIMIT", 3)
    checkout = fake_checkout(tmp_path, "import time; time.sleep(60)")
    start = time.monotonic()
    assert mutants.run_tests(checkout, ["test_fake.py"]) == (False, "stopped after 3 s")
    assert time.monotonic() - start < 30
