"""Start ``repro serve``, optionally with the benchmark's span wrappers installed.

    python3 -m perfbench.serve_child [--spans PATH] -- <repro serve arguments>

With ``--spans`` the wrappers go in before the service is built, and the
spans are written to PATH once the server has shut down.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    own = argparse.ArgumentParser(prog="perfbench.serve_child")
    own.add_argument("--spans", type=Path, default=None)
    options = own.parse_args(argv[:split])

    from repro.serve.http import add_serve_arguments, serve_command

    parser = argparse.ArgumentParser(prog="repro serve")
    add_serve_arguments(parser)
    args = parser.parse_args(argv[split + 1:])

    recorder = None
    if options.spans is not None:
        from perfbench.spans import SpanRecorder, Wrappers

        recorder = SpanRecorder()
        Wrappers(recorder).install()
    try:
        return serve_command(args)
    finally:
        if recorder is not None:
            recorder.write(options.spans)


if __name__ == "__main__":
    sys.exit(main())
