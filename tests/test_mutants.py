import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_snippet_occurs_once_in_its_module():
    # the battery itself is not run here: this only keeps its table in step
    # with the code, so that a refactor which moves a snippet updates it
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        text = (ROOT / "src" / "ascltlab" / m.module).read_text(encoding="utf-8")
        assert text.count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet, m.name
        # a mutant is run against its tests, or marked equivalent with the reason
        if m.equivalent:
            assert m.equivalent.strip() and not m.tests, m.name
        else:
            assert m.tests, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            assert f"def {name.partition('[')[0]}(" in (ROOT / path).read_text(encoding="utf-8"), test
