"""The helper thread of ``firescene.threads``: call order, errors, nesting and fork."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from firescene import threads


def test_labeler_imports_no_feature_module():
    # The label path takes the helper from ``firescene.threads``, so it does not
    # pay for importing the matcher.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, firescene.labeler; print(sorted(m for m in sys.modules if m.startswith('firescene.')))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "'firescene.threads'" in out.stdout and "firescene.features" not in out.stdout


class TestThreads:
    # The helper thread starts on the first call and stays, so each test
    # counts threads only after a first call.

    def test_both_runs_first_on_the_helper_and_returns_in_call_order(self):
        helper, caller = threads.both(threading.current_thread, threading.current_thread)
        assert caller is threading.current_thread() and helper is not caller and helper.daemon
        assert threads.both(lambda: "a", threading.current_thread) == ("a", caller)
        assert threads.both(threading.current_thread, int)[0] is helper and helper.is_alive()

    @pytest.mark.parametrize("fails", ["first", "second", "both"])
    def test_both_raises_the_first_error_in_call_order(self, fails):
        def call(name):
            def run():
                if fails in (name, "both"):
                    raise KeyError(name)
                return name
            return run

        threads.both(int, int)
        before = threading.active_count()
        with pytest.raises(KeyError) as err:
            threads.both(call("first"), call("second"))
        assert err.value.args == ("second" if fails == "second" else "first",)
        assert threads.both(lambda: 3, lambda: 4) == (3, 4)  # the helper serves the next call
        assert threading.active_count() == before

    def test_both_inside_the_helper_runs_in_turn(self):
        # The helper cannot hand a call to itself; waiting on itself would never end.
        def inner():
            return threads.both(threading.current_thread, threading.current_thread)

        (first, second), _ = threads.both(inner, int)
        assert first is second is not threading.current_thread()

    def test_forked_child_starts_its_own_helper(self):
        # The child has no helper thread; handing it a call would wait forever.
        threads.both(int, int)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork() of a threaded process
            pid = os.fork()
        if pid == 0:
            os._exit(0 if threads.both(lambda: 1, lambda: 2) == (1, 2) else 1)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
