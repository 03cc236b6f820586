"""Suite-wide guards and fixtures: no test may leave a child process, and
tests that count work in the fit's lane worker, a forked process whose
memory the test cannot read, log it to a file both processes append to."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    state = "an unreaped" if pid else "a running"
    pytest.fail(f"the test left {state} child process")


class ProcessLog:
    """Lines any process appends, the forked lane worker's included: each
    is the writer's pid and the fields it wrote."""

    def __init__(self, path):
        self.path = str(path)

    def write(self, *fields):
        line = " ".join(str(f) for f in (os.getpid(),) + fields) + "\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
        try:
            os.write(fd, line.encode())  # one write: lines never interleave
        finally:
            os.close(fd)

    def by_process(self) -> dict:
        """Each writer's lines' fields, in the order written, by pid."""
        out = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                for pid, *fields in (line.split() for line in fh):
                    out.setdefault(int(pid), []).append(fields)
        return out


@pytest.fixture
def process_log(tmp_path):
    return ProcessLog(tmp_path / "process.log")
