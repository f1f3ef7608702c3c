"""Start the serve daemon, optionally with span wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launcher.py [--trace] -- [repro.serve flags]

Without ``--trace`` this is exactly ``python -m repro.serve``.  With it,
the request-path and harness layers are wrapped before the daemon is
built, and ``GET /perfbench/spans`` returns every span recorded so far
(the route is answered before the traced ``handle``).
"""

from __future__ import annotations

import sys

SPANS_PATH = "/perfbench/spans"


def _install_tracing() -> None:
    import spans
    from repro.serve.app import ServeApp

    recorder = spans.SpanRecorder()
    spans.install_serve(recorder)
    traced = ServeApp.handle

    async def handle(self, method, path, body):
        if path == SPANS_PATH:
            return 200, {"spans": list(recorder.spans)}
        return await traced(self, method, path, body)
    ServeApp.handle = handle


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: launcher.py [--trace] -- [repro.serve flags]",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    if "--trace" in argv[:split]:
        _install_tracing()
    from repro.serve.__main__ import main as serve_main
    return serve_main(argv[split + 1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
