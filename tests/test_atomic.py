import pytest

from groupanon.atomic import atomic_write


class TestAtomicWrite:
    def test_replaces_the_file_when_the_block_completes(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("a,b\n")
            assert path.read_text() == "old\n"
        assert path.read_bytes() == b"a,b\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("existed", [True, False])
    def test_failure_mid_write_leaves_previous_state(self, tmp_path, existed):
        path = tmp_path / "report.json"
        if existed:
            path.write_text("previous")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("x" * 100_000)
                fh.flush()
                raise RuntimeError("crash halfway")
        assert list(tmp_path.iterdir()) == ([path] if existed else [])
        if existed:
            assert path.read_text() == "previous"
