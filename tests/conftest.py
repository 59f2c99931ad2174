"""The serial `verify` runs that several test modules compare against, made once per session."""

import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from symex import verify
from symex.cli import main


class SerialVerify:
    """serial(*argv) is (exit code, stdout, stderr) of main(argv) in one process
    with one CPU, run on the first call only; serial.sweeps(seed) is (exhaustive
    report, random report, rng state after the random sweep) as recorded during
    the text `verify --suite all --seed <seed>` run.  Call it before patching
    anything, so that what it keeps is the unpatched program's."""

    def __init__(self):
        self.runs = {}
        self.recorded = {}

    def __call__(self, *argv):
        if argv not in self.runs:
            self.runs[argv] = self._run(argv)
        return self.runs[argv]

    def sweeps(self, seed):
        self("verify", "--suite", "all", "--seed", seed)
        return self.recorded["verify", "--suite", "all", "--seed", seed]

    def _run(self, argv):
        exhaustive, random_sweep, recorded = verify.equivalence_exhaustive, verify.equivalence_random, []

        def exhaustive_spy():
            recorded.append(exhaustive())
            return recorded[-1]

        def random_spy(rng):
            recorded.append(random_sweep(rng))
            recorded.append(rng.getstate())
            return recorded[-2]

        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
            patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            patch.setattr(verify, "equivalence_exhaustive", exhaustive_spy)
            patch.setattr(verify, "equivalence_random", random_spy)
            code = main(list(argv))
        self.recorded[argv] = tuple(recorded)
        return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def serial_verify():
    return SerialVerify()
