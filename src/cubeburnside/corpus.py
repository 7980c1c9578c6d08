"""Locating and loading the bundled fixture corpus.

Fixtures live under the installed package's ``fixtures/`` directory; the
environment variable ``KH_CORPUS_DIR`` overrides the location.  Inputs to
the CLI may be file paths or bare fixture names resolved here.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .certificates import EquivalenceCertificate, certificate_from_json
from .errors import InputError
from .functor import StableFunctor, functor_from_json
from .khovanov import PDCode, parse_pd
from .simplicial import DeltaComplex

KINDS = ("pd", "functors", "certificates", "delta", "golden")


def corpus_dir() -> Path:
    env = os.environ.get("KH_CORPUS_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "fixtures"


def fixture_path(kind: str, name: str) -> Path:
    if kind not in KINDS:
        raise InputError(f"unknown fixture kind {kind!r}")
    return corpus_dir() / kind / f"{name}.json"


def list_fixtures(kind: str) -> list[str]:
    d = corpus_dir() / kind
    if not d.is_dir():
        return []
    return sorted(p.stem for p in d.glob("*.json"))


def _read(path: Path, json_only: bool = False) -> dict | str:
    """A file's contents: its JSON when the text starts with "{" or when
    ``json_only``, else the text.  A file that cannot be read or decoded as
    UTF-8, or whose JSON does not parse (nested too deep, or holding an
    integer too long to convert), raises ``InputError``."""
    try:
        text = path.read_text(encoding="utf-8")
        return json.loads(text) if json_only or text.lstrip().startswith("{") else text
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def resolve_input(kind: str, name_or_path: str) -> dict | str:
    """File contents if the argument names a file, else the bundled fixture."""
    p = Path(name_or_path)
    if p.is_file():
        return _read(p)
    fp = fixture_path(kind, name_or_path)
    if fp.is_file():
        return _read(fp, json_only=True)
    raise InputError(f"no such file and no bundled {kind} fixture: {name_or_path!r}")


def load_pd(name_or_path: str) -> PDCode:
    obj = resolve_input("pd", name_or_path)
    return parse_pd(obj)


def load_functor(name_or_path: str) -> StableFunctor:
    obj = resolve_input("functors", name_or_path)
    if not isinstance(obj, dict):
        raise InputError("functor input must be JSON")
    return functor_from_json(obj)


def load_certificate(name_or_path: str) -> EquivalenceCertificate:
    obj = resolve_input("certificates", name_or_path)
    if not isinstance(obj, dict):
        raise InputError("certificate input must be JSON")
    return certificate_from_json(obj)


def load_delta(name_or_path: str) -> DeltaComplex:
    obj = resolve_input("delta", name_or_path)
    if not isinstance(obj, dict):
        raise InputError("delta-complex input must be JSON")
    return DeltaComplex.from_json(obj)


def load_golden(name: str) -> dict:
    return _read(fixture_path("golden", name), json_only=True)
