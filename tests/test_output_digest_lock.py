"""Two tools/output_digest.py runs at once take turns on their fixed directory.

Each run clears, fills and removes one fixed directory under the system temp
directory.  It holds an exclusive lock beside that directory the whole time,
so a second run waits instead of deleting the first one's files.
"""

import importlib.util
import subprocess
import sys

from test_output_digest import DIGESTS, TOOL


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest_lock_probe", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_second_run_waits_for_the_first_and_prints_the_pinned_digest():
    tool = load_tool()
    with tool.workdir_lock():
        # Stands for the files of a run in progress, which the waiting run must not touch.
        tool.WORKDIR.mkdir(parents=True, exist_ok=True)
        marker = tool.WORKDIR / "file-of-a-run-in-progress"
        marker.write_text("")
        second = subprocess.Popen([sys.executable, str(TOOL), "--seed", "3"],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            waiting = second.stderr.readline()
            assert waiting == f"waiting for another output_digest run to release {tool.LOCK}\n"
            assert marker.exists() and second.poll() is None
        except BaseException:
            second.kill()
            raise
    out, err = second.communicate(timeout=600)
    assert second.returncode == 0, err
    assert out.splitlines()[-1] == f"sha256 {DIGESTS[3]}"
    assert not tool.WORKDIR.exists()
