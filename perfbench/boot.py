"""Traced entry point: install the per-layer probes, then run the
program's CLI exactly as ``python -m repro.cli.main`` would.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    PERFBENCH_PROBE_DIR=DIR python3 perfbench/boot.py triage ...
"""

import os
import sys

import probes  # the script's directory is first on sys.path


def main() -> int:
    probes.install(os.environ[probes.PROBE_DIR_ENV])
    from repro.cli.main import main as cli_main
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
