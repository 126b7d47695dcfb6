"""The benchmark's own answer checks pass on this checkout.

One round of the ``pipeline`` and ``oracle`` workloads of
``orbitbench/workloads.py`` is sent through ``dispatch``, as
``orbitbench/run.py`` sends it, and every report must pass its request's
``verify``.  So a change that breaks how the benchmark reads a report fails
here, not only in a benchmark run.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from orbitlab.cli import dispatch

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "orbitbench"))
import workloads


@pytest.mark.parametrize("name", ["pipeline", "oracle"])
def test_one_round_passes_the_workload_checks(tmp_path, name):
    failures = []
    for request in workloads.generate(name, 1, str(tmp_path)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = dispatch(request.argv)
        problem = request.verify(rc, json.loads(out.getvalue()))
        if problem:
            failures.append(f"{request.kind} {' '.join(request.argv)}: {problem}")
    assert not failures, "\n".join(failures[:5])
