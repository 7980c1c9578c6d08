#!/usr/bin/env python3
"""Regenerate the bundled fixture corpus.

Writes planar-diagram codes, functor JSON files for the worked square/cube
examples, the wedge stable-equivalence certificate, the reference
triangulations, and golden homology tables produced by the direct
matrix-assembly path (no span layer).  ``corpus()`` lists them and
``main()`` writes them; ``tests/test_corpus.py`` checks that the bundled
files are exactly its output.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cubeburnside import fixtures as FX
from cubeburnside.certificates import certificate_to_json
from cubeburnside.functor import StableFunctor, functor_to_json
from cubeburnside.khovanov import kh_table_direct

OUT = Path(__file__).resolve().parents[1] / "src" / "cubeburnside" / "fixtures"


def render(obj: dict) -> str:
    """A fixture file's text: sorted keys, two-space indent, one final newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def corpus() -> dict[str, dict]:
    """Every bundled fixture, as {path relative to the corpus directory: JSON object}."""
    out: dict[str, dict] = {}

    def add(kind: str, name: str, obj: dict) -> None:
        out[f"{kind}/{name}.json"] = obj

    pds = FX.pd_corpus()
    for name, pd in pds.items():
        add("pd", name, pd.to_json())

    add("functors", "projective", functor_to_json(FX.projective_functor()))
    add("functors", "square_free", functor_to_json(
        StableFunctor(FX.multiple_extension_square(), 0)))
    add("functors", "cube_obstructed", functor_to_json(
        StableFunctor(FX.zero_extension_cube(), 0)))
    add("functors", "square_smash", functor_to_json(
        StableFunctor(FX.smash_square(), 0)))
    add("functors", "square_wedge", functor_to_json(
        StableFunctor(FX.wedge_square(), 0)))
    add("functors", "wedge_cube", functor_to_json(
        StableFunctor(FX.wedge_cube(), 0)))

    add("certificates", "wedge_split", certificate_to_json(FX.wedge_certificate()))

    for name, x in FX.delta_fixtures().items():
        add("delta", name, x.to_json())

    # golden tables from the direct linear-algebra route
    golden = ["unknot0", "kink_neg", "kink_pos", "unknot_r2", "unknot_ladybug",
              "hopf", "trefoil_pos", "trefoil_neg", "fig8"]
    for name in golden:
        add("golden", name, {"schema_version": 1, "diagram": name,
                             "reduced": False,
                             "rows": kh_table_direct(pds[name])})
    add("golden", "trefoil_pos_reduced",
        {"schema_version": 1, "diagram": "trefoil_pos", "reduced": True,
         "basepoint": 1, "rows": kh_table_direct(pds["trefoil_pos"],
                                                 reduced=True, basepoint=1)})
    add("golden", "kink_neg_reduced",
        {"schema_version": 1, "diagram": "kink_neg", "reduced": True,
         "basepoint": 1, "rows": kh_table_direct(pds["kink_neg"],
                                                 reduced=True, basepoint=1)})
    return out


def main() -> None:
    for rel, obj in corpus().items():
        path = OUT / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render(obj), encoding="utf-8")
        print(f"wrote {path.relative_to(OUT.parent)}")


if __name__ == "__main__":
    main()
