"""The single durable-write helper and the guard that keeps it single."""

import ast
import pathlib

import pytest

from repro.atomic import atomic_write

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
HELPER = SRC / "atomic.py"


class TestAtomicWrite:
    def test_bytes_and_str_land_verbatim(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write(path, b"\x00\x01raw")
        assert path.read_bytes() == b"\x00\x01raw"
        atomic_write(path, "café\n")
        assert path.read_bytes() == "café\n".encode("utf-8")
        assert not (tmp_path / "out.bin.tmp").exists()

    def test_before_rename_sees_tmp_but_not_new_file(self, tmp_path):
        path = tmp_path / "state.npz"
        path.write_bytes(b"old")
        seen = []

        def before_rename():
            seen.append(((tmp_path / "state.npz.tmp").read_bytes(),
                         path.read_bytes()))

        atomic_write(path, b"new", before_rename=before_rename)
        assert seen == [(b"new", b"old")]
        assert path.read_bytes() == b"new"

    def test_crash_before_rename_keeps_old_file(self, tmp_path):
        path = tmp_path / "record.json"
        path.write_bytes(b"old")

        def crash():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            atomic_write(path, b"new", before_rename=crash)
        assert path.read_bytes() == b"old"
        assert (tmp_path / "record.json.tmp").read_bytes() == b"new"


class TestSingleWriterGuard:
    """Every durable write goes through :func:`repro.atomic.atomic_write`."""

    def _sources(self):
        return sorted(p for p in SRC.rglob("*.py") if p != HELPER)

    def test_helper_imports_nothing_from_repro(self):
        tree = ast.parse(HELPER.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("repro")
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("repro")
                               for a in node.names)

    def test_no_replace_or_fsync_outside_helper(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno}"
            for path in self._sources()
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1)
            if "os.replace(" in line or "os.fsync(" in line]
        assert offenders == []

    def test_no_module_imports_private_writer(self):
        offenders = [str(path.relative_to(SRC)) for path in self._sources()
                     if "_write_atomic" in path.read_text(encoding="utf-8")]
        assert offenders == []
