"""The durable-write seam: its operations, and a guard that nothing in
the checkpoint, bundle or serving code writes around it."""

import ast
from pathlib import Path

import pytest

from repro.core import durable

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Modules whose disk writes must all go through ``repro.core.durable``
#: (``repro.testing.faults`` stays outside: its injectors damage files
#: on purpose).
GUARDED = sorted(
    [SRC / "core" / "checkpoint.py", SRC / "core" / "bundle.py"]
    + list((SRC / "serving").glob("*.py"))
)

_OS_CALLS = {"fsync", "replace", "rename", "truncate", "unlink", "remove", "mkdir", "makedirs"}
_METHOD_CALLS = {"unlink", "rmdir", "mkdir", "write_bytes", "write_text", "touch"}


def _bypasses(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            if owner == "os" and func.attr in _OS_CALLS:
                yield node.lineno, f"os.{func.attr}"
            elif owner == "shutil" and func.attr == "rmtree":
                yield node.lineno, "shutil.rmtree"
            elif owner not in ("os", "durable") and func.attr in _METHOD_CALLS:
                yield node.lineno, f".{func.attr}("
        if isinstance(func, ast.Name) and func.id == "open" or (
            isinstance(func, ast.Attribute) and func.attr == "open"
        ):
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None
            )
            if mode is not None and not (
                isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")
            ):
                yield node.lineno, "open( in a write or append mode"


@pytest.mark.parametrize("path", GUARDED, ids=lambda p: str(p.relative_to(SRC)))
def test_no_disk_write_bypasses_the_seam(path):
    found = list(_bypasses(ast.parse(path.read_text(), str(path))))
    assert not found, f"{path.name} writes around repro.core.durable: {found}"


def test_guard_sees_each_kind_of_bypass():
    source = (
        "import os, shutil\n"
        "os.fsync(3)\nos.replace(a, b)\nshutil.rmtree(d)\n"
        "path.unlink()\npath.rmdir()\nopen(p, 'ab')\nopen(p, mode='w')\n"
        "open(p)\nopen(p, 'rb')\ndurable.unlink(p)\n"
    )
    assert [line for line, _ in _bypasses(ast.parse(source))] == [2, 3, 4, 5, 6, 7, 8]


def test_publish_dir_replaces_a_leftover_directory(tmp_path):
    target = tmp_path / "models" / "cycle-001"
    (target / "stale").mkdir(parents=True)
    (target / "stale" / "weights.npz").write_bytes(b"from a crashed save")
    (tmp_path / "models" / ".cycle-001.tmp").mkdir()
    durable.publish_dir(target, {"a.json": b"{}", "b.bin": b"\x00\x01"})
    assert sorted(p.name for p in target.iterdir()) == ["a.json", "b.bin"]
    assert (target / "b.bin").read_bytes() == b"\x00\x01"
    assert sorted(p.name for p in (tmp_path / "models").iterdir()) == ["cycle-001"]


def test_every_new_entry_is_fsynced_into_its_parent(tmp_path, monkeypatch):
    synced = []
    real = durable.fsync_dir
    monkeypatch.setattr(durable, "fsync_dir", lambda path: synced.append(Path(path)) or real(path))
    durable.make_dirs(tmp_path / "a" / "b")
    assert synced == [tmp_path, tmp_path / "a"]
    synced.clear()
    durable.publish(tmp_path / "a" / "b" / "doc.json", b"{}")
    assert synced == [tmp_path / "a" / "b"]
    synced.clear()
    durable.publish_dir(tmp_path / "a" / "c", {"f": b"x"})
    assert synced == [tmp_path / "a" / ".c.tmp", tmp_path / "a"]
    synced.clear()
    durable.remove(tmp_path / "a")
    assert synced == [tmp_path] and not (tmp_path / "a").exists()
