"""Launcher for the server of a traced run: wrap the layer boundaries,
then hand over to the program's own CLI entry point, so that the server
is started exactly as `python -m repro serve ...` starts it.  The shims
start switched off; SIGUSR1 switches them on and off, so that one server
serves the wrapped and the unwrapped slices of a run.

usage: serve_entry.py --spans-out FILE serve DB TABLE [serve options]
"""

import signal
import sys

import layers
import trace


def main(argv):
    if len(argv) < 3 or argv[0] != "--spans-out":
        print(__doc__, file=sys.stderr)
        return 2
    from repro import cli

    recorder = trace.Recorder()
    recorder.enabled = False

    def toggle(signum, frame):
        recorder.enabled = not recorder.enabled

    signal.signal(signal.SIGUSR1, toggle)
    layers.install_core(recorder)
    layers.install_service(recorder)
    try:
        return cli.main(argv[2:])
    finally:
        recorder.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
