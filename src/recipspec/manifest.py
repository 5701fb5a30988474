"""Run manifests and atomic file output for the CLI."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__

MANIFEST_SCHEMA = "recipspec.manifest/1"


def _json_default(obj):
    """Make numpy scalars and arrays serializable."""
    import numpy as np
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def dump_json(obj, **kw) -> str:
    kw.setdefault("indent", 2)
    kw.setdefault("sort_keys", True)
    return json.dumps(obj, default=_json_default, **kw) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through :func:`atomic_write_via`."""
    atomic_write_via(path, lambda tmp: Path(tmp).write_text(text))


def atomic_write_via(path, writer) -> None:
    """Run ``writer(tmp_path)`` on a temporary file in the target directory,
    then rename it into place; the temporary file is removed on failure."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Record of one CLI invocation: resolved parameters and emitted files,
    under ``MANIFEST_SCHEMA`` and the package version."""

    subcommand: str
    parameters: dict
    seed: int | None = None
    outputs: list = field(default_factory=list)
    wall_time_s: float | None = None
    _t0: float = field(default_factory=time.monotonic, repr=False)

    def add_output(self, path) -> None:
        self.outputs.append({"path": str(path), "sha256": sha256_of(path)})

    def finalize(self) -> dict:
        self.wall_time_s = time.monotonic() - self._t0
        return {
            "schema": MANIFEST_SCHEMA,
            "subcommand": self.subcommand,
            "package_version": __version__,
            "parameters": self.parameters,
            "seed": self.seed,
            "outputs": self.outputs,
            "wall_time_s": self.wall_time_s,
        }

    def write(self, path) -> None:
        atomic_write_text(path, dump_json(self.finalize()))
