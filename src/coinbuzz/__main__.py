"""`python -m coinbuzz` and the `coinbuzz` console script: one command, then
an exit without interpreter teardown.

Normal shutdown spends several milliseconds on a final garbage collection and
on clearing every module, work that no command needs once its output is out.
"""

import atexit
import os
import sys

from coinbuzz.cli import main


def entry():
    """Run `main()` and the atexit handlers, flush stdout and stderr, and
    leave with `os._exit` and `main`'s code.

    `os._exit` flushes no file and joins no thread. Every file a command
    writes is closed by a `with`, each output file by its `cli._Outputs`',
    before `main` returns, and coinbuzz starts no thread. The handlers run before
    the flush, as in normal shutdown, so what they print is flushed too.

    A command that writes to stdout has flushed it, and `main` has reported
    a failure as exit 2, so a stream that fails here is left unflushed:
    normal shutdown would report the failure a second time and exit 120.
    The `SystemExit` of `--help` or a usage error leaves the same way, with
    its code, so a usage line that a failing stderr kept in its buffer
    changes no exit code; an uncaught exception leaves the normal way.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started with that descriptor closed
            try:
                stream.flush()
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    entry()
