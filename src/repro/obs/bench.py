"""Git provenance for benchmark records.

``bench/run.py`` stamps every record it appends with
:func:`provenance_sha`: the commit SHA, suffixed ``-dirty`` when tracked
files carry uncommitted changes, so a measurement of modified code can
never masquerade as the clean HEAD commit's performance.
"""

from __future__ import annotations

import os
import subprocess
from typing import Optional


def git_sha(cwd: Optional[str] = None) -> str:
    """The current commit SHA, or ``"unknown"`` outside a git checkout."""
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def git_dirty(cwd: Optional[str] = None) -> Optional[bool]:
    """Whether tracked files carry uncommitted changes (None if unknown).

    Untracked files are ignored (the ``git describe --dirty``
    convention): the failure mode this guards against is benchmarking
    *modified* code while attributing the numbers to the unmodified
    HEAD commit.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return bool(out.stdout.strip())


def provenance_sha(cwd: Optional[str] = None) -> str:
    """:func:`git_sha`, suffixed ``-dirty`` for an unclean working tree.

    A ``REPRO_GIT_SHA`` override is taken verbatim: the caller is
    asserting provenance explicitly.
    """
    if os.environ.get("REPRO_GIT_SHA"):
        return git_sha(cwd)
    sha = git_sha(cwd)
    if sha != "unknown" and git_dirty(cwd):
        sha += "-dirty"
    return sha
