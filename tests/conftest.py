"""Helpers shared by the tests that run code in a fresh interpreter."""

from __future__ import annotations

import os
from pathlib import Path

import corpusforge


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment, plus ``extra``, for a child interpreter
    that imports the package under test.

    The child may run in another directory, where a relative PYTHONPATH
    (e.g. ``src``) no longer resolves, so the root of the package under
    test goes in front.
    """
    pythonpath = [str(Path(corpusforge.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), **extra)
