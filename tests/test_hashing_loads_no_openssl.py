"""Digests come from the interpreter's builtin ``blake2b``: no process
loads OpenSSL.

``storage/ring.py``, ``storage/antientropy.py`` and ``cluster/transport.py``
take ``blake2b`` from the builtin ``_blake2`` module, which is the very
function ``hashlib.blake2b`` hands out.  Importing ``hashlib`` for it would
also load ``_hashlib`` and map OpenSSL's libcrypto into every process
(~3.5 MB of RSS on CPython 3.11).  These tests read no clock and no RSS.
"""

from __future__ import annotations

import _blake2
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Imports every ``repro`` module (a ``__main__`` would run its CLI) and
#: the e2e bench's runner, then reports what it loaded.
IMPORT_ALL = """
import importlib, json, pkgutil, sys
import repro
names = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__")]
for name in names:
    importlib.import_module(name)
importlib.import_module("bench_e2e.runner")
print(json.dumps({"modules": len(names),
                  "hashlib": "hashlib" in sys.modules,
                  "_hashlib": "_hashlib" in sys.modules}))
"""


def test_hashlib_blake2b_is_the_builtin():
    """The digests equal what ``hashlib.blake2b`` gives only while it is
    the builtin; an interpreter where it is not fails here, loudly."""
    assert hashlib.blake2b is _blake2.blake2b


def test_importing_every_module_loads_no_openssl():
    modules = [path for path in (ROOT / "src" / "repro").rglob("*.py")
               if path.name != "__main__.py"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")])}
    # -B: the fresh interpreter writes no bytecode into the tree.
    result = subprocess.run([sys.executable, "-B", "-c", IMPORT_ALL],
                            env=env, capture_output=True, text=True,
                            check=False)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert loaded == {"modules": len(modules), "hashlib": False,
                      "_hashlib": False}
