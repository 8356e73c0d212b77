"""Run ``repro serve --port 0`` for the benchmark, from this checkout.

With ``--trace-out PATH`` the span wrappers are installed before the
server is created, and the spans are written to PATH once ``POST
/shutdown`` has drained the daemon.  The process exits on its own if the
benchmark that started it goes away.
"""

from __future__ import annotations

import argparse
import sys

from e2e_batch import exit_with_parent, use_checkout_sources


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    exit_with_parent()
    use_checkout_sources()
    tracer = None
    if args.trace_out:
        from e2e_trace import Tracer

        tracer = Tracer()
        tracer.install_serve()
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", "--port", "0"])
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
