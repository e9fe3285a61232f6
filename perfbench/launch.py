"""Start a serve-tier process with the layer spans of ``spans.py`` installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/launch.py SPANS_OUT [front] ARGS...

wraps the layer functions, then runs ``repro.serve.__main__.main(ARGS)``
exactly as ``python -m repro.serve ARGS`` would.  Stop it with SIGINT: the
CLI closes its server in its ``finally`` and returns, and the spans are
written to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import sys

from spans import FRONT_HOOKS, SERVER_HOOKS, Recorder


def main(argv) -> int:
    spans_out, serve_argv = argv[0], list(argv[1:])
    hooks = FRONT_HOOKS if serve_argv[:1] == ["front"] else SERVER_HOOKS
    recorder = Recorder().install(hooks)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(serve_argv)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
