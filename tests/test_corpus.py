"""The bundled fixture corpus is exactly what ``scripts/make_fixtures.py``
writes."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_fixtures.py"


def _make_fixtures():
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_corpus_is_regenerated_byte_for_byte():
    mf = _make_fixtures()
    want = mf.corpus()
    root = mf.OUT
    assert sorted(p.relative_to(root).as_posix()
                  for p in root.rglob("*") if p.is_file()) == sorted(want)
    differs = [rel for rel, obj in want.items()
               if (root / rel).read_bytes() != mf.render(obj).encode("utf-8")]
    assert not differs, differs
