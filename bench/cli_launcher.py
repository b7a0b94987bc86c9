"""Runs `topogame.cli.main` with every public function traced.

Usage (from the root of a checkout):
    python3 bench/cli_launcher.py <span file> <topogame arguments...>

Behaves like `python -m topogame.cli <arguments>` and writes its spans to
the span file when it exits, or when it receives SIGTERM (the benchmark
stops a command that ran past its deadline that way; spans still open
are closed with the error "Killed").
"""

import os
import signal
import sys
import time

sys.path.insert(0, os.path.abspath("src"))

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()

from topogame import cli  # noqa: E402

SPAN_FILE = sys.argv[1]
t_main = time.monotonic()


def _on_term(signum, frame):
    tracer.close_open_spans("Killed")
    tracer.dump(SPAN_FILE, {"t_main": t_main, "exit": -signum})
    os._exit(128 + signum)


signal.signal(signal.SIGTERM, _on_term)
code = cli.main(sys.argv[2:])
tracer.dump(SPAN_FILE, {"t_main": t_main, "exit": code})
sys.exit(code)
