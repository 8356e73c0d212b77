"""Entry point for ``python -m repro``.

A :class:`~repro.errors.ReproError` becomes one ``error: <Type>: <message>``
line on stderr and exit status 2; ``repro.cli.main`` itself still raises,
so in-process callers see the exception.
"""

import sys

from repro.cli import main
from repro.errors import ReproError

try:
    sys.exit(main())
except ReproError as exc:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    sys.exit(2)
