"""The package root: one export table, submodules imported on first use."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import steinitz

SRC = str(Path(steinitz.__file__).resolve().parents[1])


def loaded_after(code: str) -> set[str]:
    """The steinitz modules a fresh interpreter holds after running code."""
    probe = code + "\nimport sys; print(*[m for m in sys.modules if m.startswith('steinitz')])"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    )
    return set(proc.stdout.split())


def test_cli_loads_oracle_and_cones_only_for_their_verbs():
    after_import = loaded_after("import steinitz.cli")
    assert "steinitz.cli" in after_import
    assert not after_import & {"steinitz.oracle", "steinitz.cones"}
    after_verbs = loaded_after(
        "from steinitz.cli import run_command\n"
        "run_command(['divides', '2', '2^3']); run_command(['member', 'sinf', 'sieve(6)'])"
    )
    assert not after_verbs & {"steinitz.oracle", "steinitz.cones"}
    after_bz = loaded_after("from steinitz.cli import run_command; run_command(['bz', 'tofrac', '4', '3'])")
    assert "steinitz.cones" in after_bz


def test_every_public_name_resolves_to_its_module():
    names = [name for group in steinitz._EXPORTS.values() for name in group]
    assert steinitz.__all__ == names and len(set(names)) == len(names)
    for module, group in steinitz._EXPORTS.items():
        mod = import_module(f"steinitz.{module}")
        for name in group:
            assert getattr(steinitz, name) is getattr(mod, name), name
            # kept in the namespace, so the next read is a plain lookup
            assert vars(steinitz)[name] is getattr(mod, name), name
    namespace = {}
    exec("from steinitz import *", namespace)
    assert all(namespace[name] is getattr(steinitz, name) for name in names)
    assert set(names) <= set(dir(steinitz))
    # each name is spelled once in the package root
    source = Path(steinitz.__file__).read_text()
    assert all(source.count(f'"{name}"') == 1 for name in names)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        steinitz.no_such_name
    assert not hasattr(steinitz, "Oracle")
    # a submodule is still reachable by a from-import
    from steinitz import oracle

    assert oracle is sys.modules["steinitz.oracle"]
